# The optional `bench_perf_check` ctest (-DAMSVP_BENCH_TESTS=ON): run each
# gated bench with JSON output, then evaluate bench/compare.py's gate table
# over all of them. Invoked as:
#   cmake -DBENCH_DIR=... -DPYTHON_EXE=... -DCOMPARE_PY=... -P run_perf_check.cmake
set(json_files "")
foreach(bench bench_micro_kernels bench_dynamic_width_sweep bench_sweep_service_load)
  execute_process(COMMAND ${BENCH_DIR}/${bench} --json ${BENCH_DIR}/${bench}.json
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (rc=${rc})")
  endif()
  list(APPEND json_files ${BENCH_DIR}/${bench}.json)
endforeach()

execute_process(COMMAND ${PYTHON_EXE} ${COMPARE_PY} ${json_files} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf gate table failed (rc=${rc})")
endif()
