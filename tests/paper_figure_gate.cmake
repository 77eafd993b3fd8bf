# Runs one paper-figure bench and diffs its output against the committed
# copy byte for byte. Usage:
#   cmake -DBENCH=<binary> -DGOLDEN=<docs/results/x.txt> -DOUT=<file> \
#         -P paper_figure_gate.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR
          "${OUT} differs from ${GOLDEN}: modeled time moved. Regenerate the "
          "golden and the numbers EXPERIMENTS.md quotes, and say why.")
endif()
