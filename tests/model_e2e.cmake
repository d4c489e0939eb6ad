# End-to-end model leg, run as `cmake -P` from ctest (see tests/CMakeLists).
#
# Fits performance models from NAS CG runs at two message-size scales
# (classes S and A — CG's message sizes grow with the class grid), predicts
# the held-out third scale (class B), and requires:
#   * ovprof_model eval exits 0: the measured B run reproduces the predicted
#     mean transfer time and overlap-bound percentages within the documented
#     tolerances (model::kMeanXferRelTol and kBoundsAbsTolPct, DESIGN.md
#     5.12);
#   * the fit JSON is bit-identical across reruns (deterministic output);
#   * fit, predict and eval write valid JSON when a section name holds a
#     quote and a backslash (SP's section, renamed in its samples).
#
# Required -D variables: NAS_RUN, OVPROF_MODEL (binary paths), WORK_DIR.
foreach(var NAS_RUN OVPROF_MODEL WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "model_e2e.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

# 1. Sweep: two fitted scales plus the held-out one.
foreach(cls S A B)
  run_checked("${NAS_RUN}" --kernel=cg --class=${cls} --procs=4
              --ovprof-model=cg_${cls}.sample)
endforeach()

# 2. Fit twice; the JSON artifact must be bit-identical across reruns.
run_checked("${OVPROF_MODEL}" fit cg_S.sample cg_A.sample --out=fit1.json)
run_checked("${OVPROF_MODEL}" fit cg_S.sample cg_A.sample --out=fit2.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK_DIR}/fit1.json" "${WORK_DIR}/fit2.json"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "ovprof_model fit output is not deterministic")
endif()

# 3. Predict at an unmeasured parameter (just past the fitted range).
run_checked("${OVPROF_MODEL}" predict cg_S.sample cg_A.sample
            --at=100000 --out=predict.json)

# 4. The held-out class B run must land inside the documented tolerances
#    (ovprof_model eval exits 1 on a gate miss).
run_checked("${OVPROF_MODEL}" eval cg_S.sample cg_A.sample
            --heldout=cg_B.sample --out=eval.json)

# 5. Section names are free text.  Rename SP's section in samples at 1, 4
#    and 9 ranks; every output must parse, and predict must give the name
#    back unchanged.
set(odd_name "solve\"ov\\lap")
foreach(p 1 4 9)
  run_checked("${NAS_RUN}" --kernel=sp --class=S --procs=${p}
              --ovprof-model=sp_${p}.sample)
  file(READ "${WORK_DIR}/sp_${p}.sample" text)
  string(REPLACE "section.begin solve-overlap\n"
                 "section.begin ${odd_name}\n" text "${text}")
  file(WRITE "${WORK_DIR}/sp_odd_${p}.sample" "${text}")
endforeach()
run_checked("${OVPROF_MODEL}" fit sp_odd_1.sample sp_odd_4.sample
            --out=odd_fit.json)
run_checked("${OVPROF_MODEL}" predict sp_odd_1.sample sp_odd_4.sample
            --at=7000 --out=odd_predict.json)
run_checked("${OVPROF_MODEL}" eval sp_odd_1.sample sp_odd_4.sample
            --heldout=sp_odd_9.sample --out=odd_eval.json)
foreach(out odd_fit odd_predict odd_eval)
  file(READ "${WORK_DIR}/${out}.json" json)
  string(JSON type ERROR_VARIABLE err TYPE "${json}")
  if(err)
    message(FATAL_ERROR "${out}.json is not valid JSON: ${err}")
  endif()
endforeach()
file(READ "${WORK_DIR}/odd_predict.json" json)
string(JSON n LENGTH "${json}" predictions)
set(named 0)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  string(JSON section GET "${json}" predictions ${i} section)
  if(section STREQUAL odd_name)
    math(EXPR named "${named} + 1")
  endif()
endforeach()
if(named EQUAL 0)
  message(FATAL_ERROR "odd_predict.json lost the section name ${odd_name}")
endif()

message(STATUS "model e2e OK: fit deterministic, held-out B within tolerance, "
               "odd section names escaped")

