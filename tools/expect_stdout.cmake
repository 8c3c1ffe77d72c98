# Runs TOOL and fails unless it exits 0 and its stdout equals the file
# EXPECTED byte for byte:
#   cmake -DTOOL=<path> -DEXPECTED=<file> -P <this>
execute_process(COMMAND "${TOOL}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got ${code}:\n${out}${err}")
endif()
file(READ "${EXPECTED}" want)
if(NOT out STREQUAL want)
  message("--- expected\n${want}--- got\n${out}")
  message(FATAL_ERROR "stdout differs from ${EXPECTED}")
endif()
