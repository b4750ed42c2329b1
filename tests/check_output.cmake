# Runs PROGRAM with ARGS (space-separated, may be empty) in a fresh directory DIR
# and checks one of its outputs.
#   -DPROGRAM=<binary> -DDIR=<work dir> [-DARGS=<args>]
#   -DSHA256=<digest>   the run must exit 0 and the hashed file have this digest
#   [-DFILE=<path>]     the file to hash, relative to DIR (default: stdout)
#   -DREJECT=1          the run must exit nonzero with empty stdout
#   -DEMBEDDED_IN=<doc> the run must exit 0 and its stdout equal the text of
#                       <doc> between the lines `<!-- begin: <name> ARGS -->`
#                       and `<!-- end: <name> ARGS -->`
if(NOT FILE)
  set(FILE stdout)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${PROGRAM} ${args}
                WORKING_DIRECTORY ${DIR}
                OUTPUT_FILE ${DIR}/stdout
                RESULT_VARIABLE rc)
get_filename_component(name ${PROGRAM} NAME)
if(REJECT)
  file(SIZE ${DIR}/stdout size)
  if(rc EQUAL 0 OR NOT size EQUAL 0)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, ${size} stdout bytes; "
                        "want nonzero exit and empty stdout")
  endif()
elseif(EMBEDDED_IN)
  file(READ ${DIR}/stdout out)
  file(READ ${EMBEDDED_IN} doc)
  set(begin "<!-- begin: ${name} ${ARGS} -->\n")
  set(end "<!-- end: ${name} ${ARGS} -->")
  string(FIND "${doc}" "${begin}" b)
  string(FIND "${doc}" "${end}" e)
  if(b EQUAL -1 OR e EQUAL -1)
    message(FATAL_ERROR "${EMBEDDED_IN}: no '${begin}' ... '${end}' block")
  endif()
  string(LENGTH "${begin}" begin_length)
  math(EXPR b "${b} + ${begin_length}")
  math(EXPR length "${e} - ${b}")
  string(SUBSTRING "${doc}" ${b} ${length} embedded)
  if(NOT rc EQUAL 0 OR NOT out STREQUAL embedded)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}; its stdout (${DIR}/stdout) "
                        "differs from the block in ${EMBEDDED_IN}. Regenerate the "
                        "block with `${name} ${ARGS}` and review the diff.")
  endif()
elseif(NOT EXISTS ${DIR}/${FILE})
  message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, wrote no ${FILE}")
else()
  file(SHA256 ${DIR}/${FILE} digest)
  if(NOT rc EQUAL 0 OR NOT digest STREQUAL SHA256)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, ${FILE} sha256 ${digest}; "
                        "want exit 0 and ${SHA256}")
  endif()
endif()
