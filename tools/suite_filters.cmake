# Suite-filter guard, run as a tier-1 ctest: every colon-separated pattern
# of the labelled suites' --gtest_filter strings must select at least one
# test of amsvp_tests, so a renamed or deleted test cannot drop out of a
# `ctest -L <label>` run without notice. Each pattern is matched by gtest
# itself (--gtest_list_tests), with the same semantics the suites use.
#
# Invoked as:
#   cmake -DTESTS=<amsvp_tests> -DFILTERS=<pattern>:<pattern>:... -P suite_filters.cmake

string(REPLACE ":" ";" patterns "${FILTERS}")
set(unmatched "")
foreach(pattern IN LISTS patterns)
  execute_process(COMMAND ${TESTS} --gtest_list_tests --gtest_filter=${pattern}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TESTS} --gtest_list_tests failed (rc=${rc}):\n${out}${err}")
  endif()
  # The listing indents each selected test name by two spaces.
  if(NOT out MATCHES "\n  [^ ]")
    list(APPEND unmatched "${pattern}")
  endif()
endforeach()

list(LENGTH patterns total)
if(unmatched)
  string(JOIN ", " names ${unmatched})
  message(FATAL_ERROR "suite filter patterns that select no test: ${names}")
endif()
message(STATUS "all ${total} suite filter patterns select at least one test")
