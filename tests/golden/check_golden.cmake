# Golden-hash check of one bench scenario: run it --quick with the
# determinism check on, then require every <case>.event_hash to equal
# the committed golden file (tools/check_restore.py) and the run's
# --stats-out document to hold exactly one stats tree per simulation
# and a finite value for each result FINITE names
# (tests/check_stats_trees.py). Registered by tests/CMakeLists.txt;
# by hand:
#
#   cmake -DBENCH=build/bench/emerald_bench
#         -DSCENARIO=fig12_memsched_highload -DPYTHON=python3
#         -DCHECK=tools/check_restore.py
#         -DGOLDEN=tests/golden/fig12_quick.json -DOUT=out.json
#         [-DEXTRA=--capture-trace=traces]
#         [-DFINITE=M2-cube.BAS.display_serviced_norm,...]
#         -P tests/golden/check_golden.cmake
#
# EXTRA is an optional ;-list of further bench flags
# (--capture-trace=<dir>, --replay-trace=<dir>). FINITE is an
# optional comma-separated list of result keys.
#
# A hash that moves on purpose is re-pinned by copying the scenario's
# `*.event_hash` results from OUT into the golden file; say why in
# CHANGES.md.

execute_process(COMMAND ${BENCH} --run=${SCENARIO} --quick
                        --check-determinism --stats-out=${OUT}
                        ${EXTRA}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SCENARIO} --quick exited with ${rc}")
endif()

execute_process(COMMAND ${PYTHON} ${CHECK} ${GOLDEN} ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SCENARIO}: event hashes differ from ${GOLDEN}")
endif()

if(FINITE)
    set(finite --finite=${FINITE})
endif()
execute_process(COMMAND ${PYTHON}
                        ${CMAKE_CURRENT_LIST_DIR}/../check_stats_trees.py
                        ${OUT} ${finite}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SCENARIO}: ${OUT} does not hold one stats "
                        "tree per simulation and a finite value for "
                        "each result of '${FINITE}'")
endif()
