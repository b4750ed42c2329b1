# The paper suite runs in one process (it builds the full study once), and
# each of its gtests is still its own ctest entry, by its gtest name.
#   -DMODE=run   -DPROGRAM=<binary> -DREPORT=<json> -DCOUNT=<n>
#       runs every gtest of PROGRAM once and writes their verdicts to
#       REPORT; fails when no report of COUNT tests was written (a crash, a
#       hang, or a TEST the CMake scan did not see) or when PROGRAM exits
#       nonzero after a report with no failure (a sanitizer error or leak
#       found at exit), so that the entries below carry each test's own
#       verdict
#   -DMODE=check -DREPORT=<json> -DTEST=<Suite.Name>
#       passes when TEST ran to completion in REPORT with no failure, and
#       prints its failure messages otherwise
if(MODE STREQUAL "run")
  file(REMOVE ${REPORT})
  execute_process(COMMAND ${PROGRAM} --gtest_output=json:${REPORT}
                  RESULT_VARIABLE rc)
  if(NOT EXISTS ${REPORT})
    message(FATAL_ERROR "${PROGRAM} exited ${rc} without writing ${REPORT}")
  endif()
  file(READ ${REPORT} report)
  string(JSON tests GET "${report}" tests)
  if(NOT tests EQUAL COUNT)
    message(FATAL_ERROR "${REPORT} holds ${tests} tests, want ${COUNT}: "
                        "write each TEST(Suite, Name) of the paper suite on one line")
  endif()
  string(JSON failures GET "${report}" failures)
  if(NOT rc EQUAL 0 AND failures EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited ${rc} after a report with no failure")
  endif()
elseif(MODE STREQUAL "check")
  file(READ ${REPORT} report)
  string(REPLACE "." ";" parts "${TEST}")
  list(GET parts 0 suite_name)
  list(GET parts 1 test_name)
  string(JSON suites LENGTH "${report}" testsuites)
  math(EXPR last_suite "${suites} - 1")
  foreach(i RANGE ${last_suite})
    string(JSON name GET "${report}" testsuites ${i} name)
    if(NOT name STREQUAL suite_name)
      continue()
    endif()
    string(JSON cases LENGTH "${report}" testsuites ${i} testsuite)
    math(EXPR last_case "${cases} - 1")
    foreach(j RANGE ${last_case})
      string(JSON case GET "${report}" testsuites ${i} testsuite ${j})
      string(JSON name GET "${case}" name)
      if(NOT name STREQUAL test_name)
        continue()
      endif()
      string(JSON status GET "${case}" status)
      string(JSON result GET "${case}" result)
      string(JSON failures ERROR_VARIABLE none LENGTH "${case}" failures)
      if(none)
        set(failures 0)
      endif()
      if(NOT status STREQUAL "RUN" OR NOT result STREQUAL "COMPLETED")
        message(FATAL_ERROR "${TEST}: ${status} ${result}")
      endif()
      if(failures GREATER 0)
        math(EXPR last_failure "${failures} - 1")
        foreach(k RANGE ${last_failure})
          string(JSON text GET "${case}" failures ${k} failure)
          message("${text}")
        endforeach()
        message(FATAL_ERROR "${TEST}: ${failures} failure(s)")
      endif()
      return()
    endforeach()
  endforeach()
  message(FATAL_ERROR "${TEST}: not in ${REPORT}")
else()
  message(FATAL_ERROR "MODE must be run or check")
endif()
