# Checkpoint/restore round trip of one bench scenario: a cold --quick
# run writes one checkpoint per simulation at AT into DIR/ckpt (each
# under its <label>-<scope> subdirectory), a warm run restores every
# one of them, and tools/check_restore.py requires each
# <label>.event_hash to equal the cold run's. Registered by
# tests/CMakeLists.txt; by hand:
#
#   cmake -DBENCH=build/bench/emerald_bench
#         -DSCENARIO=fig09_memsched_regular -DAT=5ms -DPYTHON=python3
#         -DCHECK=tools/check_restore.py -DDIR=restore_out
#         -P tests/check_bench_restore.cmake

file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${BENCH} --run=${SCENARIO} --quick
                        --check-determinism --checkpoint-at=${AT}
                        --checkpoint-dir=${DIR}/ckpt
                        --stats-out=${DIR}/cold.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SCENARIO} cold run exited with ${rc}")
endif()

execute_process(COMMAND ${BENCH} --run=${SCENARIO} --quick
                        --check-determinism --restore=${DIR}/ckpt
                        --stats-out=${DIR}/warm.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SCENARIO} warm run exited with ${rc}")
endif()

execute_process(COMMAND ${PYTHON} ${CHECK} ${DIR}/cold.json
                        ${DIR}/warm.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SCENARIO}: the warm run's event hashes "
                        "differ from the cold run's")
endif()
