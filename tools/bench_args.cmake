# Bench command-line check, run as a tier-1 ctest. On every bench, an
# unknown flag, a stray argument, a flag missing its value and a
# non-positive or unparsable duration must stop the bench with a usage
# message and exit status 2, and --help must print the usage line and exit
# 0 — all before the bench measures anything (nothing on stdout but the
# usage line).
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir of bench_*> -DBENCHES=<name,name,...> -P bench_args.cmake

function(expect_usage_error expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${expected}" OR NOT err MATCHES "usage: "
     OR NOT out STREQUAL "")
    string(JOIN " " command ${ARGN})
    message(FATAL_ERROR "${command}: expected exit 2, nothing on stdout and \"${expected}\", "
                        "got rc=${rc}:\n${out}${err}")
  endif()
endfunction()

function(expect_help)
  execute_process(COMMAND ${ARGN} --help RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: [^\n]*\n$")
    string(JOIN " " command ${ARGN})
    message(FATAL_ERROR "${command} --help: expected exit 0 and only the usage line, "
                        "got rc=${rc}:\n${out}${err}")
  endif()
endfunction()

string(REPLACE "," ";" benches "${BENCHES}")
foreach(bench IN LISTS benches)
  set(exe ${BENCH_DIR}/bench_${bench})
  expect_help(${exe})
  expect_usage_error("unknown option '--bogus'" ${exe} --bogus)
  expect_usage_error("unexpected argument 'stray'" ${exe} stray)
endforeach()

set(MICRO ${BENCH_DIR}/bench_micro_kernels)
set(TABLE1 ${BENCH_DIR}/bench_table1_isolation)
set(SERVICE ${BENCH_DIR}/bench_sweep_service_load)
expect_usage_error("--json needs a value" ${MICRO} --json)
expect_usage_error("--duration-ms needs a value" ${TABLE1} --duration-ms)
expect_usage_error("--duration-ms must be a positive number of ms, got '0'"
                   ${TABLE1} --duration-ms 0)
expect_usage_error("got '-1'" ${TABLE1} --duration-ms -1)
expect_usage_error("got 'abc'" ${TABLE1} --duration-ms abc)
expect_usage_error("AMSVP_DURATION_MS must be a positive number of ms, got '0'"
                   ${CMAKE_COMMAND} -E env AMSVP_DURATION_MS=0 ${TABLE1})
expect_usage_error("unknown option '--duraton-ms'" ${TABLE1} --duraton-ms 5)
expect_usage_error("unexpected argument '5'" ${TABLE1} --json /dev/null 5)
expect_usage_error("--jobs must be a positive integer, got 'abc'" ${SERVICE} --jobs abc)
expect_usage_error("--clients must be a positive integer, got '0'" ${SERVICE} --clients 0)
