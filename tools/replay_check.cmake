# Record/replay round trip of one shipped scenario, in both trace formats.
# The scenario runs live twice, recording a UCTC v2 trace and a text
# trace, and each trace is then replayed with the scenario:
#   - the two live runs print the same stdout;
#   - a closed scenario's replays print the live run's stdout;
#   - an open scenario's two replays print the same stdout. It need not be
#     the live run's: a trace carries no deadlines or priorities, which
#     the scenario's [run] controls act on.
# The `recorded N arrivals to FILE` line is dropped before comparing.
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
  string(REGEX REPLACE "recorded [0-9]+ arrivals to [^\n]*\n" "" stdout
         "${stdout}")
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_same scenario what expected got)
  if(NOT expected STREQUAL got)
    message(SEND_ERROR "${scenario}: ${what} differ\n"
                       "--- expected\n${expected}--- got\n${got}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK})
get_filename_component(name ${SCENARIO} NAME_WE)
set(v2 ${WORK}/${name}.uctc)
set(txt ${WORK}/${name}.txt)
run_sim(live --scenario=${SCENARIO} --record-trace=${v2})
run_sim(live_txt --scenario=${SCENARIO} --record-trace=${txt})
run_sim(replay_v2 --scenario=${SCENARIO} --replay-trace=${v2})
run_sim(replay_txt --scenario=${SCENARIO} --replay-trace=${txt})
if(NOT live MATCHES "serializable *: yes")
  message(SEND_ERROR "${name}: the live run printed no verdict:\n${live}")
endif()
expect_same(${name} "the v2 and text recording runs" "${live}" "${live_txt}")
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
