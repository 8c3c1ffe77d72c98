# Record/replay round trip of one shipped scenario, in both trace formats.
# The scenario runs live twice, recording a UCTC v2 trace, and a text
# trace plus a CSV export. Each trace is then replayed with the scenario,
# plainly and converting it (v2 to text and CSV, text to v2):
#   - the two live runs print the same stdout;
#   - a closed scenario's replays print the live run's stdout;
#   - an open scenario's two replays print the same stdout. It need not be
#     the live run's: a trace carries no deadlines or priorities, which
#     the scenario's [run] controls act on;
#   - a conversion prints its plain replay's stdout and writes the live
#     run's files byte for byte.
# The `recorded ...` and `exported ...` lines are dropped before comparing.
# tools/CMakeLists.txt registers one ctest entry per shipped scenario,
# replay_check.<name>, so ctest -j runs them in parallel.
#
#   cmake -DSIM=<unicc_sim> -DSCENARIO=<file.ini> -DWORK=<scratch dir> \
#         -P tools/replay_check.cmake
#
# Exits non-zero, naming the scenario and each pair of outputs that
# differ, if any check fails.

function(run_sim out)
  execute_process(COMMAND ${SIM} ${ARGN}
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "unicc_sim ${ARGN} exited ${code}:\n${stdout}${stderr}")
  endif()
  string(REGEX REPLACE "(recorded [0-9]+ arrivals|exported [0-9]+ rows) to [^\n]*\n"
         "" stdout "${stdout}")
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_same scenario what expected got)
  if(NOT expected STREQUAL got)
    message(SEND_ERROR "${scenario}: ${what} differ\n"
                       "--- expected\n${expected}--- got\n${got}")
  endif()
endfunction()

function(expect_same_file scenario expected got)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${got}
                  RESULT_VARIABLE differ)
  if(differ)
    message(SEND_ERROR "${scenario}: ${got} differs from ${expected}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK})
get_filename_component(name ${SCENARIO} NAME_WE)
set(v2 ${WORK}/${name}.uctc)
set(txt ${WORK}/${name}.txt)
set(csv ${WORK}/${name}.csv)
set(to_txt ${WORK}/${name}.from_v2.txt)
set(to_csv ${WORK}/${name}.from_v2.csv)
set(to_v2 ${WORK}/${name}.from_txt.uctc)
run_sim(live --scenario=${SCENARIO} --record-trace=${v2})
run_sim(live_txt --scenario=${SCENARIO} --record-trace=${txt}
        --export-csv=${csv})
run_sim(replay_v2 --scenario=${SCENARIO} --replay-trace=${v2})
run_sim(replay_txt --scenario=${SCENARIO} --replay-trace=${txt})
run_sim(convert_v2 --scenario=${SCENARIO} --replay-trace=${v2}
        --record-trace=${to_txt} --export-csv=${to_csv})
run_sim(convert_txt --scenario=${SCENARIO} --replay-trace=${txt}
        --record-trace=${to_v2})
if(NOT live MATCHES "serializable *: yes")
  message(SEND_ERROR "${name}: the live run printed no verdict:\n${live}")
endif()
expect_same(${name} "the v2 and text recording runs" "${live}" "${live_txt}")
expect_same(${name} "the v2 replay and its conversion" "${replay_v2}"
            "${convert_v2}")
expect_same(${name} "the text replay and its conversion" "${replay_txt}"
            "${convert_txt}")
expect_same_file(${name} ${txt} ${to_txt})
expect_same_file(${name} ${csv} ${to_csv})
expect_same_file(${name} ${v2} ${to_v2})
# ScenarioSpec::IsOpenSystem(): one of these [run] controls is engaged.
file(READ ${SCENARIO} text)
if(text MATCHES
   "(^|\n)[ \t]*(horizon_ms|commit_target|max_inflight)[ \t]*=[ \t]*[1-9]")
  expect_same(${name} "the v2 and text replays" "${replay_txt}"
              "${replay_v2}")
else()
  expect_same(${name} "the live run and its v2 replay" "${live}"
              "${replay_v2}")
  expect_same(${name} "the live run and its text replay" "${live}"
              "${replay_txt}")
endif()
