# The library's LLVM footprint: fails when any object of the amsvp archive
# references llvm::PassBuilder. The ORC mid-end pipeline is built by hand
# (src/codegen/llvm_lowering.cpp) because PassBuilder references every pass
# LLVM has, and one reference links megabytes of IPO, vectorizer and scalar
# pass code into every binary that links the library. LLVM's OrcJIT
# component still lists libLLVMPasses on its link interface, so nothing but
# this check stops a reference from the library's own code.
#
#   cmake -DNM=<nm> -DLIBRARY=<path to libamsvp.a> -P llvm_link_trim.cmake
if(NOT NM OR NOT LIBRARY)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIBRARY=<archive> -P llvm_link_trim.cmake")
endif()
execute_process(COMMAND ${NM} -C --undefined-only ${LIBRARY}
                OUTPUT_VARIABLE symbols ERROR_QUIET RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIBRARY} (exit ${status})")
endif()
string(REGEX MATCHALL "[^\n]*llvm::PassBuilder::[^\n]*" references "${symbols}")
if(references)
  list(JOIN references "\n" listing)
  message(FATAL_ERROR "the library references llvm::PassBuilder:\n${listing}")
endif()
message(STATUS "no llvm::PassBuilder reference in ${LIBRARY}")
