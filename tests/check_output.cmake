# Runs PROGRAM with ARGS (space-separated, may be empty) in a fresh directory DIR
# and checks one of its outputs.
#   -DPROGRAM=<binary> -DDIR=<work dir> [-DARGS=<args>]
#   -DSHA256=<digest>   the run must exit 0 and the hashed file have this digest
#   [-DFILE=<path>]     the file to hash, relative to DIR (default: stdout)
#   -DREJECT=1          the run must exit nonzero with empty stdout
#   [-DSTDERR_PREFIX=<text>] with REJECT: a stderr line must start with <text>
#   -DEMBEDDED_IN=<doc> the run must exit 0 and its stdout equal the text of
#                       <doc> between the lines `<!-- begin: <name> ARGS -->`
#                       and `<!-- end: <name> ARGS -->`
#   [-DINPUT=<file>]    copied into DIR under its own name before the run,
#                       [-DCUT=<n>] without its last n bytes
#   [-DCOUNT_OF=<text> -DSAME_COUNT_AS=<file>] with SHA256: the first
#                       `<n>/<m> packets` after <text> in stdout must equal
#                       the first one after <text> in <file>
#   -DSTDOUT_CONTAINS=<text> the run must exit 0 and its stdout hold <text>
#   [-DRUNS=<n>]        runs the program n times in the same DIR (default 1);
#                       each run before the last must exit 0, and the check
#                       above applies to the last run
#   [-DNONEMPTY=<files>] after every run, each of the space-separated files
#                       (relative to DIR) must exist and be non-empty
if(NOT FILE)
  set(FILE stdout)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(nonempty UNIX_COMMAND "${NONEMPTY}")
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
if(INPUT)
  get_filename_component(input_name ${INPUT} NAME)
  if(CUT)
    file(SIZE ${INPUT} input_size)
    math(EXPR keep "${input_size} - ${CUT}")
    execute_process(COMMAND head -c ${keep} ${INPUT} OUTPUT_FILE ${DIR}/${input_name}
                    RESULT_VARIABLE cut_rc)
    if(NOT cut_rc EQUAL 0)
      message(FATAL_ERROR "cannot cut ${INPUT} to ${keep} bytes")
    endif()
  else()
    file(COPY ${INPUT} DESTINATION ${DIR})
  endif()
endif()
set(stderr_file)
if(STDERR_PREFIX)
  set(stderr_file ERROR_FILE ${DIR}/stderr)
endif()
get_filename_component(name ${PROGRAM} NAME)
if(NOT RUNS)
  set(RUNS 1)
endif()
foreach(run RANGE 1 ${RUNS})
  execute_process(COMMAND ${PROGRAM} ${args}
                  WORKING_DIRECTORY ${DIR}
                  OUTPUT_FILE ${DIR}/stdout
                  ${stderr_file}
                  RESULT_VARIABLE rc)
  if(run LESS RUNS AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} ${ARGS}: run ${run} of ${RUNS} exited ${rc}")
  endif()
  foreach(file IN LISTS nonempty)
    set(size 0)
    if(EXISTS ${DIR}/${file})
      file(SIZE ${DIR}/${file} size)
    endif()
    if(size EQUAL 0)
      message(FATAL_ERROR "${name} ${ARGS}: run ${run} of ${RUNS} left no "
                          "non-empty ${file}")
    endif()
  endforeach()
endforeach()

# The `<n>/<m> packets` count that follows the first <COUNT_OF> in <file>.
function(packet_count_after file out)
  file(READ ${file} text)
  string(FIND "${text}" "${COUNT_OF}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${file}: no '${COUNT_OF}'")
  endif()
  string(SUBSTRING "${text}" ${at} -1 rest)
  string(REGEX MATCH "[0-9]+/[0-9]+ packets" count "${rest}")
  set(${out} "${count}" PARENT_SCOPE)
endfunction()

if(REJECT)
  file(SIZE ${DIR}/stdout size)
  if(rc EQUAL 0 OR NOT size EQUAL 0)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, ${size} stdout bytes; "
                        "want nonzero exit and empty stdout")
  endif()
  if(STDERR_PREFIX)
    file(STRINGS ${DIR}/stderr lines)
    set(found FALSE)
    foreach(line IN LISTS lines)
      string(FIND "${line}" "${STDERR_PREFIX}" at)
      if(at EQUAL 0)
        set(found TRUE)
      endif()
    endforeach()
    if(NOT found)
      message(FATAL_ERROR "${name} ${ARGS}: no stderr line starts with "
                          "'${STDERR_PREFIX}' (${DIR}/stderr)")
    endif()
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
elseif(STDOUT_CONTAINS)
  file(READ ${DIR}/stdout out)
  string(FIND "${out}" "${STDOUT_CONTAINS}" at)
  if(NOT rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}; stdout (${DIR}/stdout) "
                        "does not contain '${STDOUT_CONTAINS}'")
  endif()
elseif(NOT EXISTS ${DIR}/${FILE})
  message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, wrote no ${FILE}")
else()
  file(SHA256 ${DIR}/${FILE} digest)
  if(NOT rc EQUAL 0 OR NOT digest STREQUAL SHA256)
    message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}, ${FILE} sha256 ${digest}; "
                        "want exit 0 and ${SHA256}")
  endif()
  if(SAME_COUNT_AS)
    packet_count_after(${DIR}/stdout ours)
    packet_count_after(${SAME_COUNT_AS} theirs)
    if(ours STREQUAL "" OR NOT ours STREQUAL theirs)
      message(FATAL_ERROR "${name} ${ARGS}: '${COUNT_OF}' counts '${ours}', "
                          "${SAME_COUNT_AS} counts '${theirs}'")
    endif()
  endif()
endif()
