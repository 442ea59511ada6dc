# Bench command-line check, run as a tier-1 ctest: a flag missing its value
# and a non-positive or unparsable duration must stop a bench with a usage
# message and exit status 2 before it measures anything.
#
# Invoked as:
#   cmake -DMICRO=<bench_micro_kernels> -DTABLE1=<bench_table1_isolation> -P bench_args.cmake

function(expect_usage_error expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 20)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${expected}" OR NOT err MATCHES "usage: ")
    string(JOIN " " command ${ARGN})
    message(FATAL_ERROR "${command}: expected exit 2 and \"${expected}\", "
                        "got rc=${rc}:\n${out}${err}")
  endif()
endfunction()

expect_usage_error("--json needs a value" ${MICRO} --json)
expect_usage_error("--duration-ms needs a value" ${TABLE1} --duration-ms)
expect_usage_error("--duration-ms must be a positive number of ms, got '0'"
                   ${TABLE1} --duration-ms 0)
expect_usage_error("got '-1'" ${TABLE1} --duration-ms -1)
expect_usage_error("got 'abc'" ${TABLE1} --duration-ms abc)
expect_usage_error("AMSVP_DURATION_MS must be a positive number of ms, got '0'"
                   ${CMAKE_COMMAND} -E env AMSVP_DURATION_MS=0 ${TABLE1})
