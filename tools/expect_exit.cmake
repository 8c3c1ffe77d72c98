# Runs TOOL with ARGS (one space-separated string) and fails unless it
# exits with status EXIT and its combined stdout and stderr match REGEX:
#   cmake -DTOOL=<path> -DARGS=--txns=abc -DEXIT=2 -DREGEX=--txns -P <this>
# With -DABSENT=<file>, the file is removed before the run and must not
# exist after it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED ABSENT)
  file(REMOVE "${ABSENT}")
endif()
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit ${EXIT}, got ${code}:\n${out}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "the run left ${ABSENT} behind")
endif()
