# Helper for the optional `bench_perf_check` ctest: run the micro bench with
# JSON output, then enforce the speedup thresholds via bench/compare.py.
# Invoked as:
#   cmake -DBENCH_EXE=... -DPYTHON_EXE=... -DCOMPARE_PY=... -DJSON_OUT=...
#         [-DTABLE1_EXE=... -DTABLE1_JSON=...]
#         [-DDYNWIDTH_EXE=... -DDYNWIDTH_JSON=...]
#         [-DSERVICE_EXE=... -DSERVICE_JSON=...] -P run_perf_check.cmake
execute_process(COMMAND ${BENCH_EXE} --json ${JSON_OUT} RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench_micro_kernels failed (rc=${bench_rc})")
endif()

# Optionally run the Table 1 backend bench too: its per-step numbers carry
# no single-run threshold but are tracked in the same history gate.
set(extra_args "")
if(TABLE1_EXE)
  execute_process(COMMAND ${TABLE1_EXE} --json ${TABLE1_JSON} RESULT_VARIABLE table1_rc)
  if(NOT table1_rc EQUAL 0)
    message(FATAL_ERROR "bench_table1_isolation failed (rc=${table1_rc})")
  endif()
  set(extra_args --extra-json ${TABLE1_JSON})
endif()

# Optionally run the dynamic-width bench: compare.py enforces the
# odd-width vs pinned-neighbour per-lane ratio (--max-dynamic-width-ratio)
# on the interpreter and ORC arms — the LaneLayout vector-row guarantee
# that non-pinned widths do not fall off a scalar cliff (absent arms skip).
if(DYNWIDTH_EXE)
  execute_process(COMMAND ${DYNWIDTH_EXE} --json ${DYNWIDTH_JSON} RESULT_VARIABLE dynwidth_rc)
  if(NOT dynwidth_rc EQUAL 0)
    message(FATAL_ERROR "bench_dynamic_width_sweep failed (rc=${dynwidth_rc})")
  endif()
  list(APPEND extra_args --extra-json ${DYNWIDTH_JSON})
endif()

# Optionally run the sweep-service load bench: compare.py enforces the
# warm-vs-per-call interpreter floor and the p99/p50 latency-stability gate
# from its entries.
if(SERVICE_EXE)
  execute_process(COMMAND ${SERVICE_EXE} --json ${SERVICE_JSON} RESULT_VARIABLE service_rc)
  if(NOT service_rc EQUAL 0)
    message(FATAL_ERROR "bench_sweep_service_load failed (rc=${service_rc})")
  endif()
  list(APPEND extra_args --extra-json ${SERVICE_JSON})
endif()

# The history file accumulates one JSONL line per run next to the JSON
# output, so gradual regressions against the best recorded run get flagged.
cmake_path(GET JSON_OUT PARENT_PATH json_dir)
execute_process(COMMAND ${PYTHON_EXE} ${COMPARE_PY} ${JSON_OUT}
                        --history ${json_dir}/BENCH_history.jsonl
                        ${extra_args}
                RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR "perf threshold check failed (rc=${compare_rc})")
endif()
