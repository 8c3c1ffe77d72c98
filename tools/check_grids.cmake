# Runs every built-in experiment grid and compares each report with the
# committed one of the same name, line by line, except for the lines that
# differ from run to run: the `threads` header, `peak_rss_kb` and the
# `setup_s`/`simulate_s`/`verify_s` wall-clock split.
#
#   cmake -DSWEEP=<sweep_runner> -DTXNS=300 -DPINNED=<dir of BENCH_e*.json> \
#         -DWORK=<scratch dir> -P tools/check_grids.cmake
#
# Fails naming each experiment and cell that differs, and the lines that
# moved. The current reports stay in WORK: to change results on purpose,
# copy them over the committed ones and say why.

cmake_minimum_required(VERSION 3.16)

set(varying "threads|peak_rss_kb|setup_s|simulate_s|verify_s")

# Reads report `file` into list `var`, one element per line, dropping the
# lines that vary from run to run. A bracket would join list elements, so
# "[" and "]" become "<" and ">" (reports hold neither, nor ";").
function(read_report var file)
  file(READ ${file} text)
  string(REGEX REPLACE "\n *\"(${varying})\": [^\n]*" "" text "${text}")
  string(REPLACE "[" "<" text "${text}")
  string(REPLACE "]" ">" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(${var} "${lines}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${SWEEP} --txns=${TXNS} --threads=4 --out-dir=${WORK}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "sweep_runner exited ${code}:\n${out}")
endif()

file(GLOB pinned RELATIVE ${PINNED} ${PINNED}/BENCH_e*.json)
file(GLOB current RELATIVE ${WORK} ${WORK}/BENCH_e*.json)
if(NOT pinned STREQUAL current)
  message(FATAL_ERROR "the committed reports (${pinned}) are not the ones "
                      "sweep_runner writes (${current})")
endif()

set(failed "")
foreach(report IN LISTS pinned)
  read_report(want ${PINNED}/${report})
  read_report(got ${WORK}/${report})
  if(want STREQUAL got)
    continue()
  endif()
  string(REGEX REPLACE "BENCH_(.*)\\.json" "\\1" experiment ${report})
  list(APPEND failed ${experiment})
  list(LENGTH want n_want)
  list(LENGTH got n_got)
  if(NOT n_want EQUAL n_got)
    message("${experiment}: ${n_got} report lines, pinned ${n_want}")
  endif()
  set(cell "header")
  set(i 0)
  foreach(line IN LISTS want)
    if(i EQUAL n_got)
      break()
    endif()
    list(GET got ${i} now)
    math(EXPR i "${i} + 1")
    if(line MATCHES "\"params\": (.*),$")
      set(cell "cell ${CMAKE_MATCH_1}")
    endif()
    if(NOT line STREQUAL now)
      string(STRIP "pinned ${line} now ${now}" change)
      string(REGEX REPLACE " +" " " change "${change}")
      string(REPLACE "<" "[" change "${change}")
      string(REPLACE ">" "]" change "${change}")
      message("${experiment}, ${cell}: ${change}")
    endif()
  endforeach()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "results differ from the committed reports of "
                      "${failed}; the current reports are in ${WORK}")
endif()
