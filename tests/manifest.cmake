# The results manifest (docs/EXPERIMENTS.md): regenerate every pinned
# artefact under OUT_DIR and compare its SHA-256 with
# tests/golden/manifest.sha256, naming the first artefact that differs;
# with DILU_REGEN_GOLDEN=1 in the environment, rewrite the manifest.
#
#   cmake -DSRC_DIR=. -DBIN_DIR=build -DOUT_DIR=build/manifest \
#         -DRESULT_DUMP=build/tests/result_dump -P tests/manifest.cmake
cmake_minimum_required(VERSION 3.24)

set(manifest ${SRC_DIR}/tests/golden/manifest.sha256)
file(REMOVE_RECURSE ${OUT_DIR})
foreach(dir run dump print print/paper sweep sweep/paper export stdout)
  file(MAKE_DIRECTORY ${OUT_DIR}/${dir})
endforeach()

# run(<artefact> <command...>): stdout to OUT_DIR/<artefact>, or
# discarded for "-"; a non-zero exit fails the test.
function(run artefact)
  set(out OUTPUT_FILE ${OUT_DIR}/${artefact})
  if(artefact STREQUAL "-")
    set(out OUTPUT_QUIET)
  endif()
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${SRC_DIR} ${out}
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}\nexited ${rc}:\n${err}")
  endif()
endfunction()

set(dilu_run ${BIN_DIR}/tools/dilu_run)
file(GLOB specs ${SRC_DIR}/experiments/*.exp)
foreach(spec IN LISTS specs)
  get_filename_component(name ${spec} NAME_WE)
  run(print/${name}.exp ${dilu_run} ${spec} --print)
  foreach(seed 1 7)
    foreach(n 1 2 3)
      run(- ${dilu_run} ${spec} --seed ${seed} --shards ${n} --threads 2
          --out ${OUT_DIR}/run/${name}_s${seed}_n${n}.json)
    endforeach()
  endforeach()
endforeach()
# The JSON prints three decimals; the dump holds every double exactly.
run(- ${RESULT_DUMP} ${SRC_DIR}/experiments ${OUT_DIR}/dump)
foreach(name chaos_burst fabric_contention e2e_mix)
  run(- ${dilu_run} ${SRC_DIR}/experiments/${name}.exp --seed 1
      --export ${OUT_DIR}/export/${name})
endforeach()

# A sweep's stdout names its thread count, so its report and CSV count.
file(GLOB sweeps ${SRC_DIR}/experiments/sweeps/*.sweep)
foreach(sweep IN LISTS sweeps)
  get_filename_component(name ${sweep} NAME_WE)
  run(print/${name}.sweep ${BIN_DIR}/tools/dilu_sweep ${sweep} --print)
  run(- ${BIN_DIR}/tools/dilu_sweep ${sweep} --threads 2
      --out ${OUT_DIR}/sweep/${name}.json)
endforeach()

# The paper figures: pinned bases (one shard only, so no run matrix)
# and the sweeps whose clauses state each figure's claims.
file(GLOB paper_specs ${SRC_DIR}/experiments/paper/*.exp)
foreach(spec IN LISTS paper_specs)
  get_filename_component(name ${spec} NAME_WE)
  run(print/paper/${name}.exp ${dilu_run} ${spec} --print)
endforeach()
file(GLOB paper_sweeps ${SRC_DIR}/experiments/paper/*.sweep)
foreach(sweep IN LISTS paper_sweeps)
  get_filename_component(name ${sweep} NAME_WE)
  run(print/paper/${name}.sweep ${BIN_DIR}/tools/dilu_sweep ${sweep} --print)
  run(- ${BIN_DIR}/tools/dilu_sweep ${sweep} --threads 2
      --out ${OUT_DIR}/sweep/paper/${name}.json)
endforeach()

foreach(bin bench/bench_coscaling_trace bench/bench_kernel_traces
    bench/bench_motivation examples/cluster_tour examples/collocation_demo)
  get_filename_component(name ${bin} NAME)
  run(stdout/${name}.txt ${BIN_DIR}/${bin})
endforeach()

file(GLOB_RECURSE artefacts RELATIVE ${OUT_DIR} ${OUT_DIR}/*)
list(SORT artefacts)
set(lines "")
foreach(artefact IN LISTS artefacts)
  file(SHA256 ${OUT_DIR}/${artefact} hash)
  string(APPEND lines "${hash}  ${artefact}\n")
endforeach()
if("$ENV{DILU_REGEN_GOLDEN}" STREQUAL "1")
  file(WRITE ${manifest} "${lines}")
  return()
endif()
file(READ ${manifest} expected)
if(NOT expected STREQUAL lines)
  # The first line either side lacks: a changed, missing or new artefact.
  string(REGEX MATCHALL "[^\n]+" want "${expected}")
  string(REGEX MATCHALL "[^\n]+" got "${lines}")
  foreach(line IN LISTS want got)
    if(NOT "${line}" IN_LIST want OR NOT "${line}" IN_LIST got)
      string(SUBSTRING "${line}" 66 -1 artefact)
      message(FATAL_ERROR "artefact ${artefact} differs from ${manifest} "
              "(regenerated under ${OUT_DIR})")
    endif()
  endforeach()
  message(FATAL_ERROR "${manifest} is not in canonical form")
endif()
