#include "codegen/llvm_lowering.hpp"

#ifdef AMSVP_HAS_LLVM

#include <mutex>
#include <vector>

#include <llvm/Analysis/AliasAnalysis.h>
#include <llvm/Analysis/AssumptionCache.h>
#include <llvm/Analysis/BasicAliasAnalysis.h>
#include <llvm/Analysis/LoopInfo.h>
#include <llvm/Analysis/MemorySSA.h>
#include <llvm/Analysis/OptimizationRemarkEmitter.h>
#include <llvm/Analysis/PhiValues.h>
#include <llvm/Analysis/ProfileSummaryInfo.h>
#include <llvm/Analysis/ScopedNoAliasAA.h>
#include <llvm/Analysis/TargetLibraryInfo.h>
#include <llvm/Analysis/TargetTransformInfo.h>
#include <llvm/Analysis/TypeBasedAliasAnalysis.h>
#include <llvm/ExecutionEngine/Orc/JITTargetMachineBuilder.h>
#include <llvm/IR/BasicBlock.h>
#include <llvm/IR/Constants.h>
#include <llvm/IR/DerivedTypes.h>
#include <llvm/IR/Dominators.h>
#include <llvm/IR/Function.h>
#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Intrinsics.h>
#include <llvm/IR/PassManager.h>
#include <llvm/IR/Verifier.h>
#include <llvm/Support/DynamicLibrary.h>
#include <llvm/Support/Error.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Support/raw_ostream.h>
#include <llvm/Target/TargetMachine.h>
#include <llvm/Transforms/InstCombine/InstCombine.h>
#include <llvm/Transforms/Scalar/EarlyCSE.h>
#include <llvm/Transforms/Scalar/SimplifyCFG.h>

#include "codegen/llvm_lowering_internal.hpp"
#include "runtime/lane_layout.hpp"
#include "support/check.hpp"

namespace amsvp::codegen {

namespace orc_detail {
namespace {

/// InitializeNativeTarget* exactly once per process (safe from any thread).
void ensure_native_target() {
    static std::once_flag once;
    std::call_once(once, [] {
        llvm::InitializeNativeTarget();
        llvm::InitializeNativeTargetAsmPrinter();
        // Open this process's symbol table here, once: every ORC compile
        // resolves libm through it, and LLVM builds that registry lazily on
        // first use, guarded only by LLVM's own (uninstrumented) code — so
        // concurrent first compiles would otherwise look racy to a
        // -DAMSVP_TSAN=ON build.
        llvm::sys::DynamicLibrary::LoadLibraryPermanently(nullptr);
    });
}

/// Emits one step kernel into the module. All the bit-exactness rules
/// live here: the builder never receives fast-math flags, multiplies and
/// adds stay separate instructions (no llvm.fmuladd, no `contract`), and
/// every libm call is nobuiltin so the pass pipeline cannot swap in a
/// differently-rounded replacement.
///
/// The row width picks the kernel. At runtime::LaneLayout::kVectorRow it
/// emits the batch kernel `amsvp_orc_step_batch`: it iterates the
/// LaneLayout rows explicitly — one loop stepping kVectorRow lanes at a
/// time with every fused instruction lowered to <4 x double> operations —
/// instead of asking the loop vectorizer to rediscover the shape. The loop
/// covers every padded row, ghost lanes included: a non-row-multiple batch
/// computes its padding lanes as throwaway extra instances rather than
/// peeling a scalar tail, so an odd width costs exactly what the next
/// row-multiple width costs. Lanes are mutually independent (each lane's
/// slot column, scratch included, is a complete state machine), so running
/// whole rows through the program rather than the whole batch through each
/// instruction permutes only the order in which independent lane results
/// are produced — and ghost-lane results are never observed: every live
/// lane still executes exactly the scalar instruction sequence, bit for
/// bit. At width 1 it emits the scalar kernel `amsvp_orc_step`: the same
/// program over one unpadded lane, `double` rows, no loop, direct libm calls.
///
/// The row body is load-minimal: a slot defined or loaded earlier in the
/// same row iteration is reused as its SSA value, so the only rows read
/// from memory are the upward-exposed ones (read before any write in the
/// step), each exactly once. The reuse is exact — the value stored is the
/// value forwarded — and sound because `slots` is noalias and distinct
/// slots occupy disjoint rows. Every instruction still stores its row, so
/// after each step the slot file, scratch rows included, is bit-identical
/// to the interpreter's.
class KernelLowering {
public:
    KernelLowering(llvm::Module& module, const runtime::ModelLayout& layout, int row_width)
        : ctx_(module.getContext()),
          module_(module),
          layout_(layout),
          builder_(module.getContext()),
          f64_(llvm::Type::getDoubleTy(ctx_)),
          i64_(llvm::Type::getInt64Ty(ctx_)),
          row_width_(row_width),
          row_ty_(row_width == 1 ? f64_
                                 : llvm::FixedVectorType::get(
                                       f64_, static_cast<unsigned>(row_width))) {
        AMSVP_CHECK(row_width == 1 || row_width == runtime::LaneLayout::kVectorRow,
                    "a kernel is lowered at row width 1 or runtime::LaneLayout::kVectorRow");
    }

    void run() {
        const bool scalar = row_width_ == 1;
        std::vector<llvm::Type*> params{llvm::PointerType::getUnqual(f64_)};
        if (!scalar) {
            params.push_back(llvm::Type::getInt32Ty(ctx_));
        }
        fn_ = llvm::Function::Create(
            llvm::FunctionType::get(llvm::Type::getVoidTy(ctx_), params, /*isVarArg=*/false),
            llvm::Function::ExternalLinkage, scalar ? kStepSymbol : kStepBatchSymbol, module_);
        fn_->addFnAttr(llvm::Attribute::NoUnwind);
        // Belt and braces beside the per-call nobuiltin: no pass may treat
        // any call inside this body as a recognized library routine.
        fn_->addFnAttr("no-builtins");
        fn_->addParamAttr(0, llvm::Attribute::NoAlias);
        fn_->addParamAttr(0, llvm::Attribute::NoCapture);
        slots_ = fn_->getArg(0);
        slots_->setName("slots");
        builder_.SetInsertPoint(llvm::BasicBlock::Create(ctx_, "entry", fn_));
        if (scalar) {
            // One straight-line block: stride 1 and lane 0 are constants, so
            // every slot address folds to `slots + slot`.
            stride64_ = llvm::ConstantInt::get(i64_, 1);
            emit_program(llvm::ConstantInt::get(i64_, 0));
        } else {
            llvm::Argument* batch = fn_->getArg(1);
            batch->setName("batch");
            llvm::Value* batch64 = builder_.CreateSExt(batch, i64_, "batch64");
            const std::int64_t row = runtime::LaneLayout::kVectorRow;
            // stride = padded_width(batch) — the LaneLayout row arithmetic on
            // power-of-two kVectorRow.
            llvm::Value* row_minus_1 = llvm::ConstantInt::get(i64_, row - 1);
            llvm::Value* row_mask = llvm::ConstantInt::get(i64_, ~(row - 1));
            stride64_ = builder_.CreateAnd(builder_.CreateAdd(batch64, row_minus_1), row_mask,
                                           "stride64");
            emit_row_loop();
        }
        emit_history_rotations();
        builder_.CreateRetVoid();
    }

private:
    /// The fused program once, over the rows at `lane`.
    void emit_program(llvm::Value* lane) {
        row_values_.assign(layout_.slot_count(), nullptr);
        for (const expr::FusedInstr& instr : layout_.fused_program().instructions()) {
            emit_instruction(instr, lane);
        }
    }

    /// `for (lane = 0; lane < stride; lane += kVectorRow)` around the
    /// program: each instruction is one <kVectorRow x double> operation per
    /// padded row. Ghost lanes ([batch, stride) of the last row) compute
    /// alongside the live ones — their results are never observed, and
    /// paying one throwaway column beats a per-instruction scalar tail at
    /// every non-row-multiple width. No vectorization metadata: the body
    /// already is the final vector shape, and it stays one basic block
    /// (every FusedOp lowers to loads, arithmetic, selects and calls), so
    /// each forwarded SSA value dominates its reuses.
    void emit_row_loop() {
        llvm::BasicBlock* entry = builder_.GetInsertBlock();
        auto* header = llvm::BasicBlock::Create(ctx_, "row.head", fn_);
        auto* body = llvm::BasicBlock::Create(ctx_, "row.body", fn_);
        auto* exit = llvm::BasicBlock::Create(ctx_, "row.exit", fn_);
        builder_.CreateBr(header);

        builder_.SetInsertPoint(header);
        llvm::PHINode* lane = builder_.CreatePHI(i64_, 2, "row.lane");
        lane->addIncoming(llvm::ConstantInt::get(i64_, 0), entry);
        builder_.CreateCondBr(builder_.CreateICmpSLT(lane, stride64_), body, exit);

        builder_.SetInsertPoint(body);
        emit_program(lane);
        llvm::Value* next = builder_.CreateAdd(
            lane, llvm::ConstantInt::get(i64_, runtime::LaneLayout::kVectorRow));
        lane->addIncoming(next, builder_.GetInsertBlock());
        builder_.CreateBr(header);

        builder_.SetInsertPoint(exit);
    }

    [[nodiscard]] llvm::Value* slot_addr(std::int64_t slot, llvm::Value* lane) {
        llvm::Value* row =
            builder_.CreateMul(llvm::ConstantInt::get(i64_, slot), stride64_);
        return builder_.CreateInBoundsGEP(f64_, slots_, builder_.CreateAdd(row, lane));
    }

    /// The lane address as a row pointer (typed pointers: the GEP yields
    /// double*, the batch kernel's row ops need the <kVectorRow x double>*
    /// view of it; at width 1 the cast folds away).
    [[nodiscard]] llvm::Value* row_addr(std::int64_t slot, llvm::Value* lane) {
        return builder_.CreateBitCast(slot_addr(slot, lane),
                                      llvm::PointerType::getUnqual(row_ty_));
    }

    /// `slot`'s row in this iteration: the SSA value an earlier instruction
    /// stored or an earlier read loaded, else one load. Rows are only
    /// guaranteed 8-byte aligned (stride is a lane count, not a byte
    /// alignment), so the load says so explicitly.
    [[nodiscard]] llvm::Value* read_row(std::int32_t slot, llvm::Value* lane) {
        llvm::Value*& value = row_values_[static_cast<std::size_t>(slot)];
        if (value == nullptr) {
            value = builder_.CreateAlignedLoad(row_ty_, row_addr(slot, lane),
                                               llvm::Align(alignof(double)));
        }
        return value;
    }

    void write_row(std::int32_t slot, llvm::Value* lane, llvm::Value* value) {
        builder_.CreateAlignedStore(value, row_addr(slot, lane),
                                    llvm::Align(alignof(double)));
        row_values_[static_cast<std::size_t>(slot)] = value;
    }

    /// An fp immediate, splatted across the row.
    [[nodiscard]] llvm::Constant* fp(double value) {
        return llvm::ConstantFP::get(row_ty_, value);
    }

    /// C++'s `cond ? 1.0 : 0.0` over an i1.
    [[nodiscard]] llvm::Value* as_double(llvm::Value* cond) {
        return builder_.CreateSelect(cond, fp(1.0), fp(0.0));
    }

    /// `value != 0.0` — C++ truthiness, true for NaN (une).
    [[nodiscard]] llvm::Value* truthy(llvm::Value* value) {
        return builder_.CreateFCmpUNE(value, fp(0.0));
    }

    /// Declared-only libm call, nobuiltin at the call site: the symbol
    /// resolves to this process's own libm, the exact functions the fused
    /// interpreter calls through <cmath>. The scalar kernel calls it
    /// directly. libm has no vector ABI here, so a batch row scalarizes —
    /// extract each lane, call, reinsert — preserving the exact per-lane
    /// libm rounding.
    [[nodiscard]] llvm::Value* call_libm(llvm::StringRef name,
                                         llvm::ArrayRef<llvm::Value*> args) {
        llvm::SmallVector<llvm::Type*, 2> params(args.size(), f64_);
        llvm::FunctionCallee callee = module_.getOrInsertFunction(
            name, llvm::FunctionType::get(f64_, params, /*isVarArg=*/false));
        if (auto* decl = llvm::dyn_cast<llvm::Function>(callee.getCallee())) {
            decl->setDoesNotThrow();
        }
        if (row_width_ == 1) {
            llvm::CallInst* call = builder_.CreateCall(callee, args);
            call->addFnAttr(llvm::Attribute::NoBuiltin);
            return call;
        }
        llvm::Value* result = llvm::UndefValue::get(row_ty_);
        for (unsigned j = 0; j < static_cast<unsigned>(row_width_); ++j) {
            llvm::SmallVector<llvm::Value*, 2> lane_args;
            for (llvm::Value* arg : args) {
                lane_args.push_back(builder_.CreateExtractElement(arg, j));
            }
            llvm::CallInst* call = builder_.CreateCall(callee, lane_args);
            call->addFnAttr(llvm::Attribute::NoBuiltin);
            result = builder_.CreateInsertElement(result, call, j);
        }
        return result;
    }

    /// llvm.sqrt / llvm.fabs — IEEE-exact, and defined directly on scalar
    /// and vector types.
    [[nodiscard]] llvm::Value* call_intrinsic(llvm::Intrinsic::ID id, llvm::Value* arg) {
        return builder_.CreateUnaryIntrinsic(id, arg);
    }

    /// The per-lane arithmetic of one fused instruction — the exact IR
    /// image of FusedProgram::execute_impl's switch.
    void emit_instruction(const expr::FusedInstr& instr, llvm::Value* lane) {
        using expr::FusedOp;
        auto a = [&] { return read_row(instr.a, lane); };
        auto bb = [&] { return read_row(instr.b, lane); };
        auto c = [&] { return read_row(instr.c, lane); };
        llvm::IRBuilder<>& b = builder_;
        llvm::Value* result = nullptr;
        switch (instr.op) {
            case FusedOp::kConst:
                result = fp(instr.imm);
                break;
            case FusedOp::kCopy:
                result = a();
                break;
            case FusedOp::kNeg:
                result = b.CreateFNeg(a());
                break;
            case FusedOp::kNot:
                // s[a] == 0.0 ? 1.0 : 0.0 — ordered ==, false for NaN.
                result = as_double(b.CreateFCmpOEQ(a(), fp(0.0)));
                break;
            case FusedOp::kExp:
                result = call_libm("exp", {a()});
                break;
            case FusedOp::kLn:
                result = call_libm("log", {a()});
                break;
            case FusedOp::kLog10:
                result = call_libm("log10", {a()});
                break;
            case FusedOp::kSqrt:
                // IEEE-exact intrinsic, same rounding as libm sqrt.
                result = call_intrinsic(llvm::Intrinsic::sqrt, a());
                break;
            case FusedOp::kSin:
                result = call_libm("sin", {a()});
                break;
            case FusedOp::kCos:
                result = call_libm("cos", {a()});
                break;
            case FusedOp::kTan:
                result = call_libm("tan", {a()});
                break;
            case FusedOp::kAbs:
                result = call_intrinsic(llvm::Intrinsic::fabs, a());
                break;
            case FusedOp::kAdd:
                result = b.CreateFAdd(a(), bb());
                break;
            case FusedOp::kSub:
                result = b.CreateFSub(a(), bb());
                break;
            case FusedOp::kMul:
                result = b.CreateFMul(a(), bb());
                break;
            case FusedOp::kDiv:
                result = b.CreateFDiv(a(), bb());
                break;
            case FusedOp::kPow:
                result = call_libm("pow", {a(), bb()});
                break;
            case FusedOp::kMin: {
                // std::min(a, b) == (b < a) ? b : a — a survives a NaN b.
                llvm::Value* va = a();
                llvm::Value* vb = bb();
                result = b.CreateSelect(b.CreateFCmpOLT(vb, va), vb, va);
                break;
            }
            case FusedOp::kMax: {
                // std::max(a, b) == (a < b) ? b : a.
                llvm::Value* va = a();
                llvm::Value* vb = bb();
                result = b.CreateSelect(b.CreateFCmpOLT(va, vb), vb, va);
                break;
            }
            case FusedOp::kLt:
                result = as_double(b.CreateFCmpOLT(a(), bb()));
                break;
            case FusedOp::kLe:
                result = as_double(b.CreateFCmpOLE(a(), bb()));
                break;
            case FusedOp::kGt:
                result = as_double(b.CreateFCmpOGT(a(), bb()));
                break;
            case FusedOp::kGe:
                result = as_double(b.CreateFCmpOGE(a(), bb()));
                break;
            case FusedOp::kEq:
                result = as_double(b.CreateFCmpOEQ(a(), bb()));
                break;
            case FusedOp::kNe:
                // C++ != is true for unordered operands: une, not one.
                result = as_double(b.CreateFCmpUNE(a(), bb()));
                break;
            case FusedOp::kAnd:
                result = as_double(b.CreateAnd(truthy(a()), truthy(bb())));
                break;
            case FusedOp::kOr:
                result = as_double(b.CreateOr(truthy(a()), truthy(bb())));
                break;
            case FusedOp::kAddImm:
                result = b.CreateFAdd(a(), fp(instr.imm));
                break;
            case FusedOp::kSubImm:
                result = b.CreateFSub(a(), fp(instr.imm));
                break;
            case FusedOp::kRSubImm:
                result = b.CreateFSub(fp(instr.imm), a());
                break;
            case FusedOp::kMulImm:
                result = b.CreateFMul(a(), fp(instr.imm));
                break;
            case FusedOp::kDivImm:
                result = b.CreateFDiv(a(), fp(instr.imm));
                break;
            case FusedOp::kRDivImm:
                result = b.CreateFDiv(fp(instr.imm), a());
                break;
            case FusedOp::kMulAdd:
                // Two roundings, like the interpreter: fmul then fadd with
                // no contract flag, so no FMA can be formed.
                result = b.CreateFAdd(b.CreateFMul(a(), bb()), c());
                break;
            case FusedOp::kMulSub:
                result = b.CreateFSub(b.CreateFMul(a(), bb()), c());
                break;
            case FusedOp::kMulRSub:
                result = b.CreateFSub(c(), b.CreateFMul(a(), bb()));
                break;
            case FusedOp::kMulAddImm:
                result = b.CreateFAdd(b.CreateFMul(a(), fp(instr.imm)), bb());
                break;
            case FusedOp::kSelect:
                result = b.CreateSelect(truthy(a()), bb(), c());
                break;
            case FusedOp::kLinComb: {
                // acc = imm; acc += coeff_k * term_k, terms in order — the
                // interpreter's left-associated sequential accumulation,
                // unrolled (term count and coefficients are compile-time
                // constants of the model).
                const std::vector<expr::LinTerm>& terms = layout_.fused_program().lin_terms();
                llvm::Value* acc = fp(instr.imm);
                for (std::int32_t k = 0; k < instr.b; ++k) {
                    const expr::LinTerm& term =
                        terms[static_cast<std::size_t>(instr.a + k)];
                    llvm::Value* src = read_row(term.slot, lane);
                    acc = b.CreateFAdd(acc, b.CreateFMul(fp(term.coeff), src));
                }
                result = acc;
                break;
            }
        }
        AMSVP_CHECK(result != nullptr, "unlowered fused opcode");
        write_row(instr.dst, lane, result);
    }

    /// Rotate history rows after the program, deepest row first — the IR
    /// image of BatchCompiledModel::step's memcpy loop: row (base+k) <-
    /// row (base+k-1), one padded row each
    /// (copying the pad columns is harmless — they are zero on both sides).
    /// In the scalar kernel each row is one 8-byte slot.
    void emit_history_rotations() {
        llvm::Value* row_bytes =
            builder_.CreateMul(stride64_, llvm::ConstantInt::get(i64_, sizeof(double)));
        llvm::Value* lane0 = llvm::ConstantInt::get(i64_, 0);
        for (const runtime::ModelLayout::SymbolSlots& rotation : layout_.rotations()) {
            for (int k = rotation.depth; k >= 1; --k) {
                llvm::Value* dst = slot_addr(rotation.base + k, lane0);
                llvm::Value* src = slot_addr(rotation.base + k - 1, lane0);
                builder_.CreateMemCpy(dst, llvm::MaybeAlign(alignof(double)), src,
                                      llvm::MaybeAlign(alignof(double)), row_bytes);
            }
        }
    }

    llvm::LLVMContext& ctx_;
    llvm::Module& module_;
    const runtime::ModelLayout& layout_;
    llvm::IRBuilder<> builder_;
    llvm::Type* f64_;
    llvm::Type* i64_;
    int row_width_;       ///< lanes per row: 1 or LaneLayout::kVectorRow
    llvm::Type* row_ty_;  ///< double, or <kVectorRow x double>
    llvm::Function* fn_ = nullptr;
    llvm::Value* slots_ = nullptr;
    llvm::Value* stride64_ = nullptr;  ///< LaneLayout::padded_width(batch); 1 when scalar
    /// Per slot: its row's SSA value in the current row iteration (null
    /// until the iteration first defines or loads it).
    std::vector<llvm::Value*> row_values_;
};

/// The fixed compile-latency-tuned mid-end pipeline, in place.
/// The lowering already emits the final vector shape (explicit
/// <kVectorRow x double> rows over every padded row, each upward-exposed
/// row loaded once), so there is no loop-rotate/loop-vectorize stage:
/// early-cse (over MemorySSA) shares the repeated GEP arithmetic,
/// instcombine folds the splat/extract/insert traffic around scalarized
/// libm calls, and simplifycfg tidies the loop skeleton. This is the subset
/// of O2 that pays for itself on straight-line step kernels — the full O2
/// pipeline costs ~4x the walltime here for no measurable steady-state
/// gain. None of these passes contract FP (the lowering emits no
/// `contract`/`fast` flags for them to act on).
///
/// The pipeline is built by hand, as LLVM's Kaleidoscope tutorial builds
/// its function pass manager: one FunctionPassManager of the three passes,
/// and only the analyses they request (directly, or as the cached results
/// instcombine and BasicAA look up) registered, with the function-level
/// alias analyses of LLVM's default AA stack (BasicAA, ScopedNoAliasAA,
/// TypeBasedAA, then the target's own). That stack's module-level GlobalsAA
/// is left out: it only ever reads a cached GlobalsAA result, and no pass
/// here computes one. No llvm::PassBuilder is involved: it references every
/// pass LLVM has, and linking it puts megabytes of IPO, vectorizer and
/// scalar-pass code into every binary that links the library. `tm`
/// supplies the target analyses.
void run_opt_pipeline(llvm::Module& module, llvm::TargetMachine* tm) {
    llvm::ModuleAnalysisManager mam;
    mam.registerPass([] { return llvm::ProfileSummaryAnalysis(); });

    llvm::FunctionAnalysisManager fam;
    fam.registerPass([] { return llvm::PassInstrumentationAnalysis(); });
    fam.registerPass([&mam] { return llvm::ModuleAnalysisManagerFunctionProxy(mam); });
    fam.registerPass([tm] { return tm->getTargetIRAnalysis(); });
    fam.registerPass([] { return llvm::TargetLibraryAnalysis(); });
    fam.registerPass([] { return llvm::AssumptionAnalysis(); });
    fam.registerPass([] { return llvm::DominatorTreeAnalysis(); });
    fam.registerPass([] { return llvm::MemorySSAAnalysis(); });
    fam.registerPass([] { return llvm::OptimizationRemarkEmitterAnalysis(); });
    fam.registerPass([] { return llvm::LoopAnalysis(); });
    fam.registerPass([] { return llvm::PhiValuesAnalysis(); });
    fam.registerPass([] { return llvm::BasicAA(); });
    fam.registerPass([] { return llvm::ScopedNoAliasAA(); });
    fam.registerPass([] { return llvm::TypeBasedAA(); });
    fam.registerPass([tm] {
        llvm::AAManager aa;
        aa.registerFunctionAnalysis<llvm::BasicAA>();
        aa.registerFunctionAnalysis<llvm::ScopedNoAliasAA>();
        aa.registerFunctionAnalysis<llvm::TypeBasedAA>();
        tm->registerDefaultAliasAnalyses(aa);
        return aa;
    });

    llvm::FunctionPassManager fpm;
    fpm.addPass(llvm::EarlyCSEPass(/*UseMemorySSA=*/true));
    fpm.addPass(llvm::InstCombinePass());
    fpm.addPass(llvm::SimplifyCFGPass());
    for (llvm::Function& function : module) {
        if (!function.isDeclaration()) {
            fpm.run(function, fam);
        }
    }
}

/// print() the module to a string (pre/post-pipeline dumps).
std::string module_to_string(const llvm::Module& module) {
    std::string text;
    llvm::raw_string_ostream stream(text);
    module.print(stream, /*AAW=*/nullptr);
    stream.flush();
    return text;
}

}  // namespace

std::optional<PreparedModule> prepare_module(const runtime::ModelLayout& layout,
                                             int row_width, std::string* unoptimized_ir,
                                             std::string* error) {
    ensure_native_target();
    auto jtmb = llvm::orc::JITTargetMachineBuilder::detectHost();
    if (!jtmb) {
        set_error(error, "cannot detect host target: " + llvm::toString(jtmb.takeError()));
        return std::nullopt;
    }
    // Both kernels use FastISel: the mid-end pipeline has already CSE'd
    // the kernel, and SelectionDAG costs ~10x the materialize time on these
    // straight-line bodies. A scalar kernel steps a whole run per compile,
    // but on the Table III platform (OA as an SC-DE module) SelectionDAG at
    // -O1 bought no measurable step time and faulted more of LLVM's code
    // into every process that compiles one. Neither forms FMAs without
    // `contract` flags.
    jtmb->setCodeGenOptLevel(llvm::CodeGenOpt::None);
    auto tm = jtmb->createTargetMachine();
    if (!tm) {
        set_error(error, "cannot create target machine: " + llvm::toString(tm.takeError()));
        return std::nullopt;
    }

    auto context = std::make_unique<llvm::LLVMContext>();
    auto module = std::make_unique<llvm::Module>("amsvp_orc", *context);
    KernelLowering(*module, layout, row_width).run();
    module->setDataLayout((*tm)->createDataLayout());
    module->setTargetTriple((*tm)->getTargetTriple().str());

    std::string verify_text;
    llvm::raw_string_ostream verify_stream(verify_text);
    if (llvm::verifyModule(*module, &verify_stream)) {
        set_error(error, "lowered module failed verification: " + verify_stream.str());
        return std::nullopt;
    }
    if (unoptimized_ir != nullptr) {
        *unoptimized_ir = module_to_string(*module);
    }
    run_opt_pipeline(*module, tm->get());
    return PreparedModule{std::move(*jtmb), std::move(context), std::move(module)};
}

}  // namespace orc_detail

std::string llvm_backend_version() { return LLVM_VERSION_STRING; }

std::optional<LoweredIrText> lower_to_ir_text(
    const std::shared_ptr<const runtime::ModelLayout>& layout, int row_width,
    std::string* error) {
    LoweredIrText text;
    const auto prepared =
        orc_detail::prepare_module(*layout, row_width, &text.unoptimized, error);
    if (!prepared) {
        return std::nullopt;
    }
    text.optimized = orc_detail::module_to_string(*prepared->module);
    return text;
}

}  // namespace amsvp::codegen

#else  // !AMSVP_HAS_LLVM

namespace amsvp::codegen {

// Built without LLVM: the lowering surface stays linkable (callers probe
// codegen::orc_available()); sweeps run on the fused interpreter.

std::string llvm_backend_version() { return "none"; }

std::optional<LoweredIrText> lower_to_ir_text(
    const std::shared_ptr<const runtime::ModelLayout>& /*layout*/, int /*row_width*/,
    std::string* error) {
    if (error != nullptr) {
        *error = "in-process LLVM backend unavailable: built with AMSVP_WITH_LLVM=OFF";
    }
    return std::nullopt;
}

}  // namespace amsvp::codegen

#endif  // AMSVP_HAS_LLVM
