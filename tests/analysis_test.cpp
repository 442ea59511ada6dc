// Static-analysis suite (`ctest -L analysis`): the fused-IR verifier, the
// dataflow-derived checks, the numeric-hazard lint and the lowering
// conformance passes — plus the mutation suite, which corrupts well-formed
// programs site by site (the analysis analogue of support/fault.hpp's
// injected runtime faults) and asserts every corruption class is rejected
// with a diagnostic naming the offending instruction.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "analysis/conformance.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "analysis/program_view.hpp"
#include "analysis/verifier.hpp"
#include "codegen/codegen.hpp"
#include "codegen/emit_common.hpp"
#include "codegen/llvm_lowering.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/model_layout.hpp"

namespace amsvp {
namespace {

using abstraction::SignalFlowModel;
using expr::Expr;
using expr::ExprPtr;
using expr::FusedInstr;
using expr::FusedOp;
using expr::LinTerm;
using expr::Symbol;
using runtime::ModelLayout;

// --- Fixtures ---------------------------------------------------------------

/// Hand-built model exercising the constructs the analyses care about:
/// a history-backed linear combination (kLinComb + rotation), a guarded
/// division (the abs+positive-immediate idiom the lint must prove), sqrt
/// over a proven-non-negative operand, and a kSelect.
SignalFlowModel make_guarded_model() {
    const Symbol u = expr::input_symbol("u");
    const Symbol x = expr::variable_symbol("x");
    const Symbol g = expr::variable_symbol("g");
    const Symbol y = expr::variable_symbol("y");
    SignalFlowModel model;
    model.name = "analysis_fixture";
    model.timestep = 1e-6;
    model.inputs = {u};
    model.assignments.push_back(
        {x, Expr::add(Expr::add(Expr::mul(Expr::constant(0.5), Expr::delayed(x, 1)),
                                Expr::mul(Expr::constant(0.25), Expr::delayed(x, 2))),
                      Expr::mul(Expr::constant(0.1), Expr::symbol(u)))});
    model.assignments.push_back(
        {g, Expr::div(Expr::symbol(x),
                      Expr::add(Expr::unary(expr::UnaryOp::kAbs, Expr::symbol(u)),
                                Expr::constant(1.5)))});
    model.assignments.push_back(
        {y, Expr::add(Expr::unary(expr::UnaryOp::kSqrt,
                                  Expr::unary(expr::UnaryOp::kAbs, Expr::symbol(g))),
                      Expr::conditional(Expr::symbol(u), Expr::symbol(g),
                                        Expr::symbol(x)))});
    model.outputs = {y, x};
    model.initial_values[x] = 0.0;
    EXPECT_TRUE(model.validate().empty());
    return model;
}

/// Model whose compile is forced to pool constants: kSelect reads all three
/// operands from slots, so its constant arms cannot fold into immediates.
std::shared_ptr<const ModelLayout> compile_pooled_constants_model() {
    const Symbol u = expr::input_symbol("u");
    const Symbol y = expr::variable_symbol("y");
    SignalFlowModel model;
    model.name = "pooled_constants";
    model.timestep = 1e-6;
    model.inputs = {u};
    model.assignments.push_back(
        {y, Expr::conditional(Expr::symbol(u), Expr::constant(2.5),
                              Expr::constant(3.5))});
    model.outputs = {y};
    const auto layout = ModelLayout::compile(model);
    EXPECT_FALSE(layout->fused_program().constants().empty());
    return layout;
}

std::shared_ptr<const ModelLayout> compile_rc(int stages) {
    std::string error;
    auto model = abstraction::abstract_circuit(netlist::make_rc_ladder(stages),
                                               {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return ModelLayout::compile(*model);
}

/// Deep-copied program + layout facts whose view survives local mutation —
/// the corruption surface for the mutation suite (FusedProgram itself is
/// deliberately immutable).
struct MutableProgram {
    std::vector<FusedInstr> code;
    std::vector<LinTerm> terms;
    std::vector<std::pair<std::int32_t, double>> constants;
    analysis::ProgramView facts;

    explicit MutableProgram(const ModelLayout& layout)
        : facts(analysis::view_of(layout)) {
        code = *facts.code;
        terms = *facts.lin_terms;
        constants = *facts.constants;
    }

    [[nodiscard]] analysis::ProgramView view() const {
        analysis::ProgramView v = facts;
        v.code = &code;
        v.lin_terms = &terms;
        v.constants = &constants;
        return v;
    }
};

/// The corrupted program must be rejected AND the diagnostics must contain
/// `needle` (typically "instr #<i>" plus the failure text).
::testing::AssertionResult rejected_with(const analysis::ProgramView& view,
                                         const std::string& needle) {
    support::DiagnosticEngine diags;
    if (analysis::verify(view, diags)) {
        return ::testing::AssertionFailure()
               << "verifier accepted the corrupted program";
    }
    const std::string all = diags.render_all();
    if (all.find(needle) == std::string::npos) {
        return ::testing::AssertionFailure()
               << "diagnostics lack \"" << needle << "\":\n"
               << all;
    }
    return ::testing::AssertionSuccess();
}

std::string instr_tag(std::size_t index) { return "instr #" + std::to_string(index); }

// --- Clean programs verify clean --------------------------------------------

TEST(AnalysisVerifier, PaperCircuitsVerifyClean) {
    for (const int stages : {1, 8, 20}) {
        const auto layout = compile_rc(stages);
        support::DiagnosticEngine diags;
        EXPECT_TRUE(analysis::verify_layout(*layout, diags))
            << "rc" << stages << ":\n"
            << diags.render_all();
    }
    std::string error;
    auto opamp = abstraction::abstract_circuit(netlist::make_opamp(), {{"out", "gnd"}},
                                               {}, &error);
    ASSERT_TRUE(opamp.has_value()) << error;
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify_layout(*ModelLayout::compile(*opamp), diags))
        << diags.render_all();
}

TEST(AnalysisVerifier, GuardedModelVerifiesCleanWithNoWarnings) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify_layout(*layout, diags)) << diags.render_all();
    // Every assignment feeds an output directly or through history, so the
    // hand model must be warning-free too.
    EXPECT_TRUE(diags.diagnostics().empty()) << diags.render_all();
    // The fixture only earns its keep if the compiler actually produced the
    // shapes the mutation suite corrupts below.
    const auto& program = layout->fused_program();
    EXPECT_GE(program.count_op(FusedOp::kLinComb), 1u);
    EXPECT_GE(program.count_op(FusedOp::kSelect), 1u);
    EXPECT_GE(program.count_op(FusedOp::kDiv), 1u);
    EXPECT_FALSE(analysis::view_of(*layout).rotations.empty());
}

// --- Mutation suite: every corruption class rejected, naming the instr ------

TEST(AnalysisMutation, InvalidOpcode) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    m.code[2].op = static_cast<FusedOp>(255);
    EXPECT_TRUE(rejected_with(m.view(), instr_tag(2) + ": invalid opcode 255"));
}

TEST(AnalysisMutation, DstSlotOutOfRange) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    m.code[0].dst = m.view().total_slot_count() + 7;
    EXPECT_TRUE(rejected_with(m.view(), instr_tag(0) + ""));
    EXPECT_TRUE(rejected_with(m.view(), "dst slot"));
    EXPECT_TRUE(rejected_with(m.view(), "out of range"));
}

TEST(AnalysisMutation, NegativeReadOperand) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    // Find an instruction that actually reads operand a.
    for (std::size_t i = 0; i < m.code.size(); ++i) {
        if (m.code[i].op != FusedOp::kConst && m.code[i].op != FusedOp::kLinComb) {
            m.code[i].a = -3;
            EXPECT_TRUE(rejected_with(
                m.view(), instr_tag(i) + " (" +
                              std::string(expr::to_string(m.code[i].op)) + ")"));
            EXPECT_TRUE(rejected_with(m.view(), "slot -3 out of range"));
            return;
        }
    }
    FAIL() << "fixture produced no readable instruction";
}

TEST(AnalysisMutation, ReadOperandOutOfRange) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    for (std::size_t i = 0; i < m.code.size(); ++i) {
        if (m.code[i].op == FusedOp::kSelect) {
            m.code[i].c = m.view().total_slot_count() + 1;
            EXPECT_TRUE(rejected_with(m.view(), instr_tag(i) + " (select): read "
                                                              "operand 2"));
            return;
        }
    }
    FAIL() << "fixture produced no kSelect";
}

TEST(AnalysisMutation, WriteToConstantPoolSlot) {
    const auto layout = compile_pooled_constants_model();
    MutableProgram m(*layout);
    ASSERT_FALSE(m.constants.empty());
    m.code[0].dst = m.constants.front().first;
    EXPECT_TRUE(rejected_with(m.view(), instr_tag(0)));
    EXPECT_TRUE(rejected_with(m.view(), "constant-pool slot"));
}

TEST(AnalysisMutation, WriteToHistorySlot) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    ASSERT_FALSE(m.facts.rotations.empty());
    m.code[0].dst = m.facts.rotations.front().base + 1;
    EXPECT_TRUE(rejected_with(m.view(), instr_tag(0)));
    EXPECT_TRUE(rejected_with(m.view(), "history slot"));
}

TEST(AnalysisMutation, WriteToTimeSlot) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    ASSERT_GE(m.facts.time_slot, 0);
    m.code[0].dst = m.facts.time_slot;
    EXPECT_TRUE(rejected_with(m.view(), instr_tag(0)));
    EXPECT_TRUE(rejected_with(m.view(), "$abstime slot"));
}

TEST(AnalysisMutation, LinCombOffsetOutOfRange) {
    const auto layout = compile_rc(8);
    MutableProgram m(*layout);
    for (std::size_t i = 0; i < m.code.size(); ++i) {
        if (m.code[i].op == FusedOp::kLinComb) {
            m.code[i].a = static_cast<std::int32_t>(m.terms.size());
            EXPECT_TRUE(rejected_with(m.view(), instr_tag(i) + " (lincomb): term "
                                                              "table range"));
            return;
        }
    }
    FAIL() << "rc ladder produced no kLinComb";
}

TEST(AnalysisMutation, LinCombCountOverflow) {
    const auto layout = compile_rc(8);
    MutableProgram m(*layout);
    for (std::size_t i = 0; i < m.code.size(); ++i) {
        if (m.code[i].op == FusedOp::kLinComb) {
            m.code[i].b = static_cast<std::int32_t>(m.terms.size()) + 5;
            EXPECT_TRUE(rejected_with(m.view(), instr_tag(i) + " (lincomb): term "
                                                              "table range"));
            return;
        }
    }
    FAIL() << "rc ladder produced no kLinComb";
}

TEST(AnalysisMutation, LinCombTermSlotOutOfRange) {
    const auto layout = compile_rc(8);
    MutableProgram m(*layout);
    for (std::size_t i = 0; i < m.code.size(); ++i) {
        const FusedInstr& instr = m.code[i];
        if (instr.op == FusedOp::kLinComb && instr.b > 0) {
            m.terms[static_cast<std::size_t>(instr.a)].slot =
                m.view().total_slot_count() + 2;
            EXPECT_TRUE(rejected_with(m.view(), instr_tag(i) + " (lincomb): read "
                                                              "term 0"));
            return;
        }
    }
    FAIL() << "rc ladder produced no kLinComb";
}

TEST(AnalysisMutation, ScratchReadBeforeWrite) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    const analysis::ProgramView clean = m.view();
    // Find a value produced in scratch and consumed by the very next
    // instruction, and swap the pair: the read now precedes the write.
    for (std::size_t i = 1; i < m.code.size(); ++i) {
        const std::int32_t produced = m.code[i - 1].dst;
        if (!clean.is_scratch_slot(produced) || clean.is_constant_slot(produced)) {
            continue;
        }
        bool reads_previous = false;
        analysis::for_each_read_slot(m.code[i], m.terms,
                                     [&](std::int32_t slot, int) {
                                         reads_previous |= slot == produced;
                                     });
        if (!reads_previous) {
            continue;
        }
        std::swap(m.code[i - 1], m.code[i]);
        EXPECT_TRUE(rejected_with(m.view(), instr_tag(i - 1)));
        EXPECT_TRUE(rejected_with(m.view(), "before any write"));
        return;
    }
    FAIL() << "fixture produced no adjacent scratch def-use pair";
}

TEST(AnalysisMutation, ScratchCompactionMismatch) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    m.facts.scratch_count += 1;  // claims one more register than dataflow needs
    EXPECT_TRUE(rejected_with(m.view(), "scratch compaction mismatch"));
}

TEST(AnalysisMutation, DuplicateConstantPoolSlot) {
    const auto layout = compile_pooled_constants_model();
    MutableProgram m(*layout);
    ASSERT_FALSE(m.constants.empty());
    m.constants.push_back(m.constants.front());
    EXPECT_TRUE(rejected_with(m.view(), "both claim slot"));
}

TEST(AnalysisMutation, ConstantPoolSlotOutsideScratch) {
    const auto layout = compile_pooled_constants_model();
    MutableProgram m(*layout);
    ASSERT_FALSE(m.constants.empty());
    m.constants.front().first = 0;  // claims a model slot
    EXPECT_TRUE(rejected_with(m.view(), "outside the scratch area"));
}

TEST(AnalysisMutation, RotationGroupOutOfRange) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    MutableProgram m(*layout);
    ASSERT_FALSE(m.facts.rotations.empty());
    m.facts.rotations.front().base = m.facts.model_slot_count;
    EXPECT_TRUE(rejected_with(m.view(), "outside the model-slot prefix"));
}

// --- Dataflow warnings ------------------------------------------------------

/// Minimal hand-assembled views (no compile) for the warning-class checks.
struct RawProgram {
    std::vector<FusedInstr> code;
    std::vector<LinTerm> terms;
    std::vector<std::pair<std::int32_t, double>> constants;

    [[nodiscard]] analysis::ProgramView view(std::int32_t model_slots,
                                             std::int32_t scratch) const {
        analysis::ProgramView v;
        v.code = &code;
        v.lin_terms = &terms;
        v.constants = &constants;
        v.model_slot_count = model_slots;
        v.scratch_count = scratch;
        return v;
    }
};

TEST(AnalysisDataflow, DeadScratchStoreWarns) {
    RawProgram p;
    p.code.push_back({FusedOp::kConst, /*dst=*/1, 0, 0, 0, 5.0});   // scratch, unread
    p.code.push_back({FusedOp::kAddImm, /*dst=*/0, 0, 0, 0, 1.0});  // keeps slot 0 live
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify(p.view(1, 1), diags)) << diags.render_all();
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    EXPECT_NE(diags.diagnostics()[0].message.find("dead store"), std::string::npos);
    EXPECT_NE(diags.diagnostics()[0].message.find("instr #0"), std::string::npos);
}

TEST(AnalysisDataflow, UnobservedModelWriteWarns) {
    RawProgram p;
    p.code.push_back({FusedOp::kConst, /*dst=*/0, 0, 0, 0, 2.0});
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify(p.view(1, 0), diags)) << diags.render_all();
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    EXPECT_NE(diags.diagnostics()[0].message.find("never observed"), std::string::npos);
}

TEST(AnalysisDataflow, BackEdgeReadCountsAsObserved) {
    // x += 1 reads last pass's value, so the write IS observed (through
    // the driver's loop back edge) even with no outputs declared.
    RawProgram p;
    p.code.push_back({FusedOp::kAddImm, /*dst=*/0, /*a=*/0, 0, 0, 1.0});
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify(p.view(1, 0), diags)) << diags.render_all();
    EXPECT_TRUE(diags.diagnostics().empty()) << diags.render_all();
}

TEST(AnalysisDataflow, LivenessMatchesCompilerOnRealModels) {
    for (const int stages : {1, 4, 20}) {
        const auto layout = compile_rc(stages);
        const analysis::ProgramView view = analysis::view_of(*layout);
        const auto du = analysis::compute_def_use(view);
        const auto reaching = analysis::compute_reaching_defs(view, du);
        const auto live = analysis::compute_liveness(view, du, reaching);
        EXPECT_EQ(view.scratch_count,
                  static_cast<std::int32_t>(view.constants->size()) +
                      live.peak_live_scratch)
            << "rc" << stages;
    }
}

// --- Numeric-hazard lint ----------------------------------------------------

TEST(AnalysisLint, GuardedModelHasNoHazards) {
    const auto layout = ModelLayout::compile(make_guarded_model());
    support::DiagnosticEngine diags;
    EXPECT_EQ(analysis::lint(analysis::view_of(*layout), diags), 0)
        << diags.render_all();
}

TEST(AnalysisLint, UnguardedDivisionFlagged) {
    const Symbol u1 = expr::input_symbol("u1");
    const Symbol u2 = expr::input_symbol("u2");
    const Symbol y = expr::variable_symbol("y");
    SignalFlowModel model;
    model.name = "unguarded";
    model.timestep = 1e-6;
    model.inputs = {u1, u2};
    model.assignments.push_back({y, Expr::div(Expr::symbol(u1), Expr::symbol(u2))});
    model.outputs = {y};
    const auto layout = ModelLayout::compile(model);
    support::DiagnosticEngine diags;
    EXPECT_EQ(analysis::lint(analysis::view_of(*layout), diags), 1);
    const std::string all = diags.render_all();
    EXPECT_NE(all.find("not provably nonzero"), std::string::npos) << all;
    // The hazard text points at the runtime quarantine machinery that owns
    // the dynamic half of this contract.
    EXPECT_NE(all.find("sweep.lane_nan"), std::string::npos) << all;
    EXPECT_FALSE(diags.has_errors());
}

TEST(AnalysisLint, UnguardedSqrtAndLogFlagged) {
    const Symbol u = expr::input_symbol("u");
    const Symbol a = expr::variable_symbol("a");
    const Symbol b = expr::variable_symbol("b");
    SignalFlowModel model;
    model.name = "unguarded_unary";
    model.timestep = 1e-6;
    model.inputs = {u};
    model.assignments.push_back(
        {a, Expr::unary(expr::UnaryOp::kSqrt, Expr::symbol(u))});
    model.assignments.push_back({b, Expr::unary(expr::UnaryOp::kLn, Expr::symbol(u))});
    model.outputs = {a, b};
    const auto layout = ModelLayout::compile(model);
    support::DiagnosticEngine diags;
    EXPECT_EQ(analysis::lint(analysis::view_of(*layout), diags), 2);
    const std::string all = diags.render_all();
    EXPECT_NE(all.find("not provably non-negative"), std::string::npos) << all;
    EXPECT_NE(all.find("not provably positive"), std::string::npos) << all;
}

TEST(AnalysisLint, DivisionByConstantZeroIsError) {
    RawProgram p;
    p.code.push_back({FusedOp::kDivImm, /*dst=*/0, /*a=*/0, 0, 0, 0.0});
    support::DiagnosticEngine diags;
    EXPECT_EQ(analysis::lint(p.view(1, 0), diags), 1);
    EXPECT_TRUE(diags.has_errors());
    EXPECT_NE(diags.render_all().find("division by constant zero"), std::string::npos);
}

TEST(AnalysisLint, ExpProvesPositiveDivisorsafe) {
    // y := u1 / exp(u2): exp is provably positive, so no hazard.
    const Symbol u1 = expr::input_symbol("u1");
    const Symbol u2 = expr::input_symbol("u2");
    const Symbol y = expr::variable_symbol("y");
    SignalFlowModel model;
    model.name = "exp_guarded";
    model.timestep = 1e-6;
    model.inputs = {u1, u2};
    model.assignments.push_back(
        {y, Expr::div(Expr::symbol(u1),
                      Expr::unary(expr::UnaryOp::kExp, Expr::symbol(u2)))});
    model.outputs = {y};
    const auto layout = ModelLayout::compile(model);
    support::DiagnosticEngine diags;
    EXPECT_EQ(analysis::lint(analysis::view_of(*layout), diags), 0)
        << diags.render_all();
}

// --- Lowering conformance ---------------------------------------------------

codegen::detail::EmitPlan plan_for(const SignalFlowModel& model,
                                   const std::shared_ptr<const ModelLayout>& layout) {
    codegen::CodegenOptions options;
    options.layout = layout;
    return codegen::detail::build_plan(model, options);
}

TEST(AnalysisConformance, EmitPlanConformsOnRealModels) {
    for (const int stages : {1, 8, 20}) {
        std::string error;
        auto model = abstraction::abstract_circuit(netlist::make_rc_ladder(stages),
                                                   {{"out", "gnd"}}, {}, &error);
        ASSERT_TRUE(model.has_value()) << error;
        const auto layout = ModelLayout::compile(*model);
        support::DiagnosticEngine diags;
        EXPECT_TRUE(analysis::verify_emit_plan(*layout, plan_for(*model, layout), diags))
            << "rc" << stages << ":\n"
            << diags.render_all();
    }
    const SignalFlowModel guarded = make_guarded_model();
    const auto layout = ModelLayout::compile(guarded);
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify_emit_plan(*layout, plan_for(guarded, layout), diags))
        << diags.render_all();
}

TEST(AnalysisConformance, EmitPlanDriftIsDetected) {
    const SignalFlowModel model = make_guarded_model();
    const auto layout = ModelLayout::compile(model);
    const codegen::detail::EmitPlan clean = plan_for(model, layout);

    {  // dropped statement
        codegen::detail::EmitPlan plan = clean;
        plan.assignments.pop_back();
        support::DiagnosticEngine diags;
        EXPECT_FALSE(analysis::verify_emit_plan(*layout, plan, diags));
        EXPECT_NE(diags.render_all().find("statement count"), std::string::npos);
    }
    {  // retargeted destination
        codegen::detail::EmitPlan plan = clean;
        plan.assignments[0] = "_wrong = 0.0;";
        support::DiagnosticEngine diags;
        EXPECT_FALSE(analysis::verify_emit_plan(*layout, plan, diags));
        EXPECT_NE(diags.render_all().find("instr #0: statement does not assign"),
                  std::string::npos)
            << diags.render_all();
    }
    {  // dropped operand
        codegen::detail::EmitPlan plan = clean;
        bool corrupted = false;
        const analysis::ProgramView view = analysis::view_of(*layout);
        for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
            const FusedInstr& instr = (*view.code)[i];
            bool has_nonconst_read = false;
            analysis::for_each_read_slot(instr, *view.lin_terms,
                                         [&](std::int32_t slot, int) {
                                             has_nonconst_read |=
                                                 !view.is_constant_slot(slot);
                                         });
            if (!has_nonconst_read) {
                continue;
            }
            // Keep the statement's own assignment prefix so only the
            // operand check can object.
            const std::string text = plan.assignments[i];
            plan.assignments[i] = text.substr(0, text.find(" = ")) + " = 0.0;";
            corrupted = true;
            break;
        }
        ASSERT_TRUE(corrupted);
        support::DiagnosticEngine diags;
        EXPECT_FALSE(analysis::verify_emit_plan(*layout, plan, diags));
        EXPECT_NE(diags.render_all().find("never reads operand"), std::string::npos)
            << diags.render_all();
    }
    {  // missing scratch local
        codegen::detail::EmitPlan plan = clean;
        ASSERT_FALSE(plan.scratch_locals.empty());
        plan.scratch_locals.pop_back();
        support::DiagnosticEngine diags;
        EXPECT_FALSE(analysis::verify_emit_plan(*layout, plan, diags));
        EXPECT_NE(diags.render_all().find("scratch local count"), std::string::npos);
    }
    {  // dropped rotation
        codegen::detail::EmitPlan plan = clean;
        ASSERT_FALSE(plan.rotations.empty());
        plan.rotations.pop_back();
        support::DiagnosticEngine diags;
        EXPECT_FALSE(analysis::verify_emit_plan(*layout, plan, diags));
        EXPECT_NE(diags.render_all().find("rotation statement count"),
                  std::string::npos);
    }
}

TEST(AnalysisConformance, OrcLoweringStoreCountsMatch) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    for (const int stages : {1, 8, 20}) {
        const auto layout = compile_rc(stages);
        support::DiagnosticEngine diags;
        EXPECT_TRUE(analysis::verify_orc_lowering(layout, diags))
            << "rc" << stages << ":\n"
            << diags.render_all();
    }
    for (const auto& [name, circuit] :
         {std::pair{"2IN", netlist::make_two_inputs()}, std::pair{"OA", netlist::make_opamp()}}) {
        std::string error;
        auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
        ASSERT_TRUE(model.has_value()) << name << ": " << error;
        support::DiagnosticEngine diags;
        EXPECT_TRUE(analysis::verify_orc_lowering(ModelLayout::compile(*model), diags))
            << name << ":\n"
            << diags.render_all();
    }
}

TEST(AnalysisConformance, OrcLoweringContractHoldsOnRandomNonlinearModels) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    // The models of OrcJitModel.RandomNonlinearModelsMatchInterpreterWholeSlotFile:
    // libm calls, selects and comparisons over forwarded row values.
    for (unsigned seed = 1; seed <= 12; ++seed) {
        const auto layout = ModelLayout::compile(testing_support::make_random_signal_flow(seed));
        support::DiagnosticEngine diags;
        EXPECT_TRUE(analysis::verify_orc_lowering(layout, diags))
            << "seed " << seed << ":\n"
            << diags.render_all();
    }
}

TEST(AnalysisConformance, OrcSkipsGracefullyWithoutLlvm) {
    if (codegen::orc_available()) {
        GTEST_SKIP() << "LLVM build: the skip path is the OFF build's";
    }
    const auto layout = compile_rc(1);
    support::DiagnosticEngine diags;
    EXPECT_TRUE(analysis::verify_orc_lowering(layout, diags));
    EXPECT_FALSE(diags.has_errors());
}

// --- Random models: every generated program verifies clean across widths ----

TEST(AnalysisRandomModels, VerifyCleanAndExecuteAcrossWidths) {
    for (unsigned seed = 0; seed < 20; ++seed) {
        const testing_support::RandomCircuit rc = testing_support::make_random_rc(seed);
        std::string error;
        auto model = abstraction::abstract_circuit(
            rc.circuit, {{rc.observed_node, "gnd"}}, {}, &error);
        ASSERT_TRUE(model.has_value()) << "seed " << seed << ": " << error;
        const auto layout = ModelLayout::compile(*model);

        support::DiagnosticEngine diags;
        EXPECT_TRUE(analysis::verify_layout(*layout, diags))
            << "seed " << seed << ":\n"
            << diags.render_all();
        EXPECT_EQ(analysis::lint(analysis::view_of(*layout), diags), 0)
            << "seed " << seed << ":\n"
            << diags.render_all();
        EXPECT_TRUE(
            analysis::verify_emit_plan(*layout, plan_for(*model, layout), diags))
            << "seed " << seed << ":\n"
            << diags.render_all();

        // The verified program must actually run at pinned and odd widths —
        // verification is about real executions, not just the listing.
        for (const int width : {1, 3, 5, 8}) {
            runtime::BatchCompiledModel batch(layout, width);
            batch.reset();
            for (int lane = 0; lane < width; ++lane) {
                batch.set_input(lane, 0, 1.0);
            }
            for (int step = 0; step < 32; ++step) {
                batch.step(static_cast<double>(step) * layout->timestep());
            }
            for (int lane = 0; lane < width; ++lane) {
                EXPECT_TRUE(std::isfinite(batch.output(lane, 0)))
                    << "seed " << seed << " width " << width << " lane " << lane;
            }
        }
    }
}

}  // namespace
}  // namespace amsvp
