# Runs `reproduce` with ARGS (a ;-list, may be empty) and checks its stdout.
#   -DREPRODUCE=<binary> -DOUT=<stdout file> [-DARGS=<ids>]
#   -DSHA256=<digest>   stdout must have this digest and the run exit 0
#   -DREJECT=1          the run must exit nonzero with empty stdout
execute_process(COMMAND ${REPRODUCE} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
file(SIZE ${OUT} size)
if(REJECT)
  if(rc EQUAL 0 OR NOT size EQUAL 0)
    message(FATAL_ERROR "reproduce ${ARGS}: exit ${rc}, ${size} stdout bytes; "
                        "want nonzero exit and empty stdout")
  endif()
else()
  file(SHA256 ${OUT} digest)
  if(NOT rc EQUAL 0 OR NOT digest STREQUAL SHA256)
    message(FATAL_ERROR "reproduce ${ARGS}: exit ${rc}, stdout sha256 ${digest}; "
                        "want exit 0 and ${SHA256}")
  endif()
endif()
