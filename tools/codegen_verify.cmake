# Lowering conformance on every bundled paper circuit, run as a ctest
# (label `analysis`): `codegen_tool --verify --builtin <circuit>` runs the
# fused-IR verifier, the emit-plan check and the ORC load/store contract of
# both the batch and the scalar kernel (analysis::verify_orc_lowering). A
# build without LLVM prints the ORC check's skip note and still passes.
#
# Invoked as:
#   cmake -DCODEGEN_TOOL=... -P codegen_verify.cmake

foreach(circuit rc1 rc20 2in oa)
  execute_process(COMMAND ${CODEGEN_TOOL} --verify --builtin ${circuit}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "codegen_tool --verify --builtin ${circuit} failed (rc=${rc}):\n"
                        "${out}${err}")
  endif()
  string(STRIP "${out}" out)
  message(STATUS "${out}")
  if(err MATCHES "ORC lowering conformance skipped")
    message(STATUS "${circuit}: ORC lowering conformance skipped (built without LLVM)")
  endif()
endforeach()
