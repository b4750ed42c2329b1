# Runs PROGRAM with ARGS (space-separated, may be empty) in a fresh directory DIR
# and checks its outputs. The run must exit 0 unless REJECT or FAILS is given.
# A list below is space-separated; quote an item that holds spaces (\"a b\").
#   -DPROGRAM=<binary> -DDIR=<work dir> [-DARGS=<args>]
#   -DSHA256=<digests>  each hashed file must have its digest, in order
#   [-DFILE=<paths>]    the files to hash, relative to DIR (default: stdout)
#   -DREJECT=1          the run must exit nonzero with empty stdout
#   [-DSTDERR_PREFIX=<text>] with REJECT: a stderr line must start with <text>
#   -DFAILS=1           the run must exit nonzero; its outputs are checked as
#                       in any other run
#   -DEMBEDDED_IN=<doc> the run's stdout must equal the text of <doc> between
#                       the lines `<!-- begin: <name> ARGS -->` and
#                       `<!-- end: <name> ARGS -->`
#   [-DINPUT=<file>]    copied into DIR under its own name before the run,
#                       [-DCUT=<n>] without its last n bytes
#   [-DCOUNT_OF=<text> -DSAME_COUNT_AS=<file>] the first `<n>/<m> packets`
#                       after <text> in stdout must equal the first one after
#                       <text> in <file>
#   -DSTDOUT_CONTAINS=<texts> stdout must hold each of the texts
#   [-DRUNS=<n>]        runs the program n times in the same DIR (default 1);
#                       each run before the last must exit 0, and the checks
#                       apply to the last run
#   [-DNONEMPTY=<files>] after every run, each of the files (relative to DIR)
#                       must exist and be non-empty
if(NOT FILE)
  set(FILE stdout)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(nonempty UNIX_COMMAND "${NONEMPTY}")
separate_arguments(files UNIX_COMMAND "${FILE}")
separate_arguments(digests UNIX_COMMAND "${SHA256}")
separate_arguments(texts UNIX_COMMAND "${STDOUT_CONTAINS}")
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
elseif(FAILS)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${name} ${ARGS}: exit 0; want nonzero")
  endif()
elseif(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} ${ARGS}: exit ${rc}; want 0")
endif()

file(READ ${DIR}/stdout out)
if(EMBEDDED_IN)
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
  if(NOT out STREQUAL embedded)
    message(FATAL_ERROR "${name} ${ARGS}: its stdout (${DIR}/stdout) differs from "
                        "the block in ${EMBEDDED_IN}. Regenerate the block with "
                        "`${name} ${ARGS}` and review the diff.")
  endif()
endif()

if(SHA256)
  list(LENGTH files file_count)
  list(LENGTH digests digest_count)
  if(NOT file_count EQUAL digest_count)
    message(FATAL_ERROR "${name} ${ARGS}: ${file_count} FILE paths for "
                        "${digest_count} SHA256 digests")
  endif()
  math(EXPR last "${digest_count} - 1")
  foreach(i RANGE ${last})
    list(GET files ${i} file)
    list(GET digests ${i} digest)
    if(NOT EXISTS ${DIR}/${file})
      message(FATAL_ERROR "${name} ${ARGS}: wrote no ${file}")
    endif()
    file(SHA256 ${DIR}/${file} actual)
    if(NOT actual STREQUAL digest)
      message(FATAL_ERROR "${name} ${ARGS}: ${file} sha256 ${actual}; want ${digest}")
    endif()
  endforeach()
endif()

if(SAME_COUNT_AS)
  packet_count_after(${DIR}/stdout ours)
  packet_count_after(${SAME_COUNT_AS} theirs)
  if(ours STREQUAL "" OR NOT ours STREQUAL theirs)
    message(FATAL_ERROR "${name} ${ARGS}: '${COUNT_OF}' counts '${ours}', "
                        "${SAME_COUNT_AS} counts '${theirs}'")
  endif()
endif()

foreach(text IN LISTS texts)
  string(FIND "${out}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} ${ARGS}: stdout (${DIR}/stdout) "
                        "does not contain '${text}'")
  endif()
endforeach()
