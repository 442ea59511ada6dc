// Command-line conversion tool: Verilog-AMS in, C++/SystemC out — the
// "automatic conversion of analog models from Verilog-AMS to C++/SystemC"
// the paper's abstract promises, as a usable utility.
//
// Usage:
//   codegen_tool [--target cpp|sc-de|sc-tdf] [--output V(pos,neg)] [file.vams]
//   codegen_tool --builtin rc1|rc20|2in|oa        # bundled paper circuits
//
// Reading from stdin is the default when no file is given. The emitted C++
// is compile-checked by the `codegen_smoke` ctest, which builds and runs
// it with the toolchain compiler.
//
// --backend orc swaps the C++ emitter for the in-process LLVM lowering:
// it dumps the model's generated LLVM IR, first the batch kernel (as
// lowered, then after the fixed optimization pipeline) and then the scalar
// kernel the same way — the debugging surface for "what does the ORC
// backend actually run", in sweeps and in the per-instance "C++" rows.
// Requires an AMSVP_WITH_LLVM=ON build.
// Adding --vector-width prefixes the dumps with a vectorization report:
// the runtime::LaneLayout row width the batch kernel was lowered at, the
// explicit vector-operation counts and the row loads and stores in both
// dumps — the quick answer to "did my model's kernel actually come out
// vector-native, loading only its upward-exposed slots".
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "abstraction/abstraction.hpp"
#include "abstraction/behavioral.hpp"
#include "analysis/conformance.hpp"
#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "codegen/codegen.hpp"
#include "codegen/emit_common.hpp"
#include "codegen/llvm_lowering.hpp"
#include "codegen/orc_jit.hpp"
#include "runtime/lane_layout.hpp"
#include "runtime/model_layout.hpp"
#include "support/diagnostics.hpp"
#include "vams/circuits.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: codegen_tool [--target cpp|sc-de|sc-tdf] [--backend cpp|orc]\n"
                 "                    [--output pos,neg]\n"
                 "                    [--vector-width] [--verify] [--lint]\n"
                 "                    [--builtin rc<N>|2in|oa|sf] [file.vams]\n"
                 "\n"
                 "  --verify  run the fused-IR structural/dataflow verifier plus the\n"
                 "            emit-plan and ORC lowering conformance checks (batch and\n"
                 "            scalar kernel) instead of emitting code; diagnostics go to\n"
                 "            stderr, exit 1 on error\n"
                 "  --lint    --verify plus the numeric-hazard lint (unguarded\n"
                 "            division/log/sqrt operands)\n");
}

}  // namespace

int main(int argc, char** argv) {
    using namespace amsvp;

    codegen::Target target = codegen::Target::kCpp;
    bool orc_backend = false;
    std::string output_pos = "out";
    std::string output_neg = "gnd";
    std::string source;
    std::string file;
    bool vector_width_report = false;
    bool run_verify = false;
    bool run_lint = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--target" && i + 1 < argc) {
            const std::string t = argv[++i];
            if (t == "cpp") {
                target = codegen::Target::kCpp;
            } else if (t == "sc-de") {
                target = codegen::Target::kSystemCDe;
            } else if (t == "sc-tdf") {
                target = codegen::Target::kSystemCAmsTdf;
            } else {
                usage();
                return 2;
            }
        } else if (arg == "--backend" && i + 1 < argc) {
            const std::string b = argv[++i];
            if (b == "cpp") {
                orc_backend = false;
            } else if (b == "orc") {
                orc_backend = true;
            } else {
                usage();
                return 2;
            }
        } else if (arg == "--output" && i + 1 < argc) {
            const std::string spec = argv[++i];
            const std::size_t comma = spec.find(',');
            if (comma == std::string::npos) {
                usage();
                return 2;
            }
            output_pos = spec.substr(0, comma);
            output_neg = spec.substr(comma + 1);
        } else if (arg == "--builtin" && i + 1 < argc) {
            const std::string name = argv[++i];
            if (name == "2in") {
                source = vams::two_inputs_source();
            } else if (name == "oa") {
                source = vams::opamp_source();
            } else if (name == "sf") {
                source = vams::signal_flow_lowpass_source();
            } else if (name.rfind("rc", 0) == 0) {
                source = vams::rc_ladder_source(std::atoi(name.c_str() + 2));
            } else {
                usage();
                return 2;
            }
        } else if (arg == "--vector-width") {
            vector_width_report = true;
        } else if (arg == "--verify") {
            run_verify = true;
        } else if (arg == "--lint") {
            run_verify = true;
            run_lint = true;
        } else if (arg == "--help") {
            usage();
            return 0;
        } else {
            file = arg;
        }
    }

    if (source.empty()) {
        if (file.empty()) {
            std::stringstream buffer;
            buffer << std::cin.rdbuf();
            source = buffer.str();
        } else {
            std::ifstream in(file);
            if (!in) {
                std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
                return 1;
            }
            std::stringstream buffer;
            buffer << in.rdbuf();
            source = buffer.str();
        }
    }

    support::DiagnosticEngine diagnostics;
    auto module = vams::parse_module_source(source, diagnostics);
    if (!module) {
        std::fprintf(stderr, "%s", diagnostics.render_all().c_str());
        return 1;
    }

    std::optional<abstraction::SignalFlowModel> model;
    std::string error;
    if (vams::is_signal_flow(*module)) {
        // Eq. 1 path: statement-by-statement conversion.
        model = abstraction::convert_signal_flow(*module, {}, diagnostics);
        if (!model) {
            std::fprintf(stderr, "%s", diagnostics.render_all().c_str());
            return 1;
        }
    } else {
        // Eq. 2 path: conservative abstraction for the output of interest.
        auto elaborated = vams::elaborate(*module, diagnostics);
        if (!elaborated) {
            std::fprintf(stderr, "%s", diagnostics.render_all().c_str());
            return 1;
        }
        model = abstraction::abstract_circuit(elaborated->circuit,
                                              {{output_pos, output_neg}}, {}, &error);
        if (!model) {
            std::fprintf(stderr, "abstraction failed: %s\n", error.c_str());
            return 1;
        }
    }

    if (run_verify) {
        // Analysis mode replaces emission: verify the IR itself, then every
        // lowering a backend would consume — the emit plan's statement
        // stream and, when this build has LLVM, both ORC kernels' IR.
        const auto layout = runtime::ModelLayout::compile(*model);
        support::DiagnosticEngine analysis_diags;
        bool ok = analysis::verify_layout(*layout, analysis_diags);
        codegen::CodegenOptions plan_options;
        plan_options.layout = layout;
        const auto plan = codegen::detail::build_plan(*model, plan_options);
        ok = analysis::verify_emit_plan(*layout, plan, analysis_diags) && ok;
        ok = analysis::verify_orc_lowering(layout, analysis_diags) && ok;
        int hazards = 0;
        if (run_lint) {
            hazards = analysis::lint(analysis::view_of(*layout), analysis_diags);
        }
        if (!analysis_diags.diagnostics().empty()) {
            std::fprintf(stderr, "%s", analysis_diags.render_all().c_str());
        }
        ok = ok && !analysis_diags.has_errors();
        std::printf("%s: %zu instructions, %d scratch slots: %s",
                    model->name.c_str(),
                    layout->fused_program().instructions().size(),
                    layout->fused_program().scratch_count(),
                    ok ? "verify OK" : "verify FAILED");
        if (run_lint) {
            std::printf("; %d numeric hazard%s", hazards, hazards == 1 ? "" : "s");
        }
        std::printf("\n");
        return ok ? 0 : 1;
    }

    if (orc_backend) {
        if (target != codegen::Target::kCpp) {
            std::fprintf(stderr, "--backend orc dumps LLVM IR; use it with --target cpp\n");
            return 2;
        }
        if (!codegen::orc_available()) {
            std::fprintf(stderr, "--backend orc: built with AMSVP_WITH_LLVM=OFF\n");
            return 1;
        }
        const auto layout = runtime::ModelLayout::compile(*model);
        std::string ir_error;
        const auto ir =
            codegen::lower_to_ir_text(layout, runtime::LaneLayout::kVectorRow, &ir_error);
        const auto scalar_ir = codegen::lower_to_ir_text(layout, 1, &ir_error);
        if (!ir || !scalar_ir) {
            std::fprintf(stderr, "--backend orc: lowering failed: %s\n", ir_error.c_str());
            return 1;
        }
        if (vector_width_report) {
            const auto count = [](const std::string& text, const std::string& needle) {
                std::size_t n = 0;
                for (std::size_t pos = text.find(needle); pos != std::string::npos;
                     pos = text.find(needle, pos + needle.size())) {
                    ++n;
                }
                return n;
            };
            const std::string vec_ty =
                "<" + std::to_string(runtime::LaneLayout::kVectorRow) + " x double>";
            std::printf("; === vector row report ===\n");
            std::printf("; lane row width: %d doubles (runtime::LaneLayout::kVectorRow)\n",
                        runtime::LaneLayout::kVectorRow);
            std::printf("; slot row stride: batch rounded up to whole rows "
                        "(padded_width)\n");
            std::printf("; batch kernel: explicit %s rows over every padded row "
                        "(ghost lanes computed, never observed)\n",
                        vec_ty.c_str());
            std::printf("; %s occurrences: %zu lowered, %zu optimized\n", vec_ty.c_str(),
                        count(ir->unoptimized, vec_ty), count(ir->optimized, vec_ty));
            for (const char* op : {"load", "store"}) {
                const std::string row_op = std::string(op) + " " + vec_ty;
                std::printf("; row %ss: %zu lowered, %zu optimized\n", op,
                            count(ir->unoptimized, row_op), count(ir->optimized, row_op));
            }
            std::printf(";\n");
        }
        std::printf("; === lowered LLVM IR (pre pass pipeline, LLVM %s) ===\n",
                    codegen::llvm_backend_version().c_str());
        std::fputs(ir->unoptimized.c_str(), stdout);
        std::printf("\n; === optimized LLVM IR (post fixed pass pipeline) ===\n");
        std::fputs(ir->optimized.c_str(), stdout);
        std::printf("\n; === scalar kernel: lowered LLVM IR (pre pass pipeline) ===\n");
        std::fputs(scalar_ir->unoptimized.c_str(), stdout);
        std::printf("\n; === scalar kernel: optimized LLVM IR (post fixed pass pipeline) ===\n");
        std::fputs(scalar_ir->optimized.c_str(), stdout);
        return 0;
    }
    if (vector_width_report) {
        std::fprintf(stderr, "--vector-width reports on the orc backend; add --backend orc\n");
        return 2;
    }

    const std::string generated = codegen::generate(*model, target);
    std::fputs(generated.c_str(), stdout);
    return 0;
}
