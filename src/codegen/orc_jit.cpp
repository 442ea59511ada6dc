#include "codegen/orc_jit.hpp"

#include <atomic>

#include "runtime/lane_layout.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"

#ifdef AMSVP_HAS_LLVM
#include <llvm/ExecutionEngine/Orc/ExecutionUtils.h>
#include <llvm/ExecutionEngine/Orc/LLJIT.h>
#include <llvm/ExecutionEngine/Orc/ThreadSafeModule.h>
#include <llvm/Support/Error.h>

#include "codegen/llvm_lowering_internal.hpp"
#endif

namespace amsvp::codegen {

namespace orc_detail {
namespace {
std::atomic<std::uint64_t> g_orc_compile_invocations{0};
}  // namespace

std::uint64_t orc_compile_invocations() {
    return g_orc_compile_invocations.load(std::memory_order_relaxed);
}

}  // namespace orc_detail

// ---------------------------------------------------------------------------
// Shared between the LLVM and the stub build.

namespace {

/// One kernel step over a padded slot file: the time row first — the
/// kernel computes the ghost lanes too — then the kernel itself.
void kernel_step(const OrcJitProgram& program, double* slots, double* time_row, int lanes,
                 double time_seconds) {
    const int padded = runtime::LaneLayout::padded_width(lanes);
    for (int l = 0; l < padded; ++l) {
        time_row[l] = time_seconds;
    }
    program.step_batch(slots, lanes);
}

}  // namespace

OrcBatchModel::OrcBatchModel(std::shared_ptr<const OrcJitProgram> program, int batch)
    : BatchCompiledModel(program->layout(), batch), program_(std::move(program)) {}

void OrcBatchModel::step(double time_seconds) {
    kernel_step(*program_, slot_data(), slot_row(layout()->time_slot()), batch(), time_seconds);
}

std::unique_ptr<runtime::BatchExecutor> OrcBatchModel::make_shard(int lane_count) const {
    return std::make_unique<OrcBatchModel>(program_, lane_count);
}

std::unique_ptr<runtime::BatchExecutor> OrcBatchModel::make_fallback_shard(
    int lane_count) const {
    // The base class builds a fused interpreter batch over the same layout:
    // no JIT artifact involved, results bit-identical to the kernel.
    return BatchCompiledModel::make_shard(lane_count);
}

OrcCompileTicket::State OrcCompileTicket::wait() const {
    std::unique_lock<std::mutex> lock(mutex_);
    resolved_.wait(lock, [this] { return state() != State::kPending; });
    return state();
}

void OrcCompileTicket::land(std::shared_ptr<const OrcJitProgram> program) {
    program_ = std::move(program);
    resolve(State::kLanded);
}

void OrcCompileTicket::fail(std::string error) {
    error_ = std::move(error);
    resolve(State::kFailed);
}

void OrcCompileTicket::drop() { resolve(State::kDropped); }

void OrcCompileTicket::resolve(State state) {
    {
        // Under the waiters' mutex, so a waiter cannot check the state and
        // then miss the notification.
        std::lock_guard<std::mutex> lock(mutex_);
        AMSVP_CHECK(state_.load(std::memory_order_relaxed) == State::kPending,
                    "an ORC compile ticket resolves once");
        state_.store(state, std::memory_order_release);
    }
    resolved_.notify_all();
}

OrcModel::OrcModel(std::shared_ptr<const OrcScalarProgram> program)
    : CompiledModel(program->layout()),
      program_(std::move(program)),
      step_fn_(program_->step_fn()) {}

std::unique_ptr<OrcModel> OrcModel::compile(std::shared_ptr<const runtime::ModelLayout> layout,
                                            std::string* error) {
    auto program = OrcScalarProgram::compile(std::move(layout), error);
    if (program == nullptr) {
        return nullptr;
    }
    return std::make_unique<OrcModel>(std::move(program));
}

void OrcModel::step(double time_seconds) {
    double* slots = slot_data();
    slots[layout()->time_slot()] = time_seconds;
    step_fn_(slots);
}

TieredOrcBatchModel::TieredOrcBatchModel(std::shared_ptr<const runtime::ModelLayout> layout,
                                         std::shared_ptr<const OrcCompileTicket> ticket,
                                         int batch)
    : BatchCompiledModel(std::move(layout), batch), ticket_(std::move(ticket)) {}

void TieredOrcBatchModel::reset() {
    BatchCompiledModel::reset();
    steps_ = 0;
    promoted_at_ = program_ != nullptr ? 0 : kNeverPromoted;
}

void TieredOrcBatchModel::step(double time_seconds) {
    if (program_ == nullptr && ticket_->state() == OrcCompileTicket::State::kLanded) {
        program_ = ticket_->program();
        promoted_at_ = steps_;
    }
    ++steps_;
    if (program_ != nullptr) {
        kernel_step(*program_, slot_data(), slot_row(layout()->time_slot()), batch(),
                    time_seconds);
    } else {
        BatchCompiledModel::step(time_seconds);
    }
}

std::unique_ptr<runtime::BatchExecutor> TieredOrcBatchModel::make_shard(int lane_count) const {
    return std::make_unique<TieredOrcBatchModel>(layout(), ticket_, lane_count);
}

std::unique_ptr<runtime::BatchExecutor> TieredOrcBatchModel::make_fallback_shard(
    int lane_count) const {
    return BatchCompiledModel::make_shard(lane_count);
}

#ifdef AMSVP_HAS_LLVM

// ---------------------------------------------------------------------------
// The real thing: the lowering prelude (lower -> verify -> fixed pass
// pipeline) -> LLJIT materialize.

namespace orc_detail {

/// Kept out of the header so public includes stay LLVM-free; destruction
/// releases the JITed code (after every holder of its program or model is
/// gone).
class Engine {
public:
    std::unique_ptr<llvm::orc::LLJIT> jit;
    std::uint64_t kernel = 0;  ///< address of the materialized kernel
};

}  // namespace orc_detail

namespace {

/// The one materialization path of both kernels: lower `layout` at
/// `row_width` (see orc_detail::prepare_module), materialize it through
/// LLJIT and resolve `symbol`. Returns nullptr with `error` set on failure.
std::unique_ptr<orc_detail::Engine> materialize(const runtime::ModelLayout& layout,
                                                int row_width, const char* symbol,
                                                std::string* error) {
    using orc_detail::set_error;
    orc_detail::g_orc_compile_invocations.fetch_add(1, std::memory_order_relaxed);
    // Deterministic failure leg for robustness tests: models "the JIT could
    // not materialize machine code" without needing a real OOM or a broken
    // target. Callers take the same fallback path a real failure would.
    if (support::fault::should_fire("jit.orc_materialize")) {
        set_error(error, "injected fault: jit.orc_materialize");
        return nullptr;
    }

    // The fixed pipeline runs inside the prelude (LLJIT adds no IR
    // optimization of its own), so what materializes is exactly the
    // optimized module the codegen_tool dumps show.
    auto prepared =
        orc_detail::prepare_module(layout, row_width, /*unoptimized_ir=*/nullptr, error);
    if (!prepared) {
        return nullptr;
    }

    auto jit = llvm::orc::LLJITBuilder()
                   .setJITTargetMachineBuilder(std::move(prepared->target))
                   .create();
    if (!jit) {
        set_error(error, "cannot create LLJIT: " + llvm::toString(jit.takeError()));
        return nullptr;
    }
    // Resolve the declared libm symbols (exp, log, pow, ...) against this
    // process — the exact functions the fused interpreter calls, which is
    // half of the bit-for-bit contract.
    auto generator = llvm::orc::DynamicLibrarySearchGenerator::GetForCurrentProcess(
        (*jit)->getDataLayout().getGlobalPrefix());
    if (!generator) {
        set_error(error,
                  "cannot search process symbols: " + llvm::toString(generator.takeError()));
        return nullptr;
    }
    (*jit)->getMainJITDylib().addGenerator(std::move(*generator));

    if (llvm::Error err = (*jit)->addIRModule(llvm::orc::ThreadSafeModule(
            std::move(prepared->module), std::move(prepared->context)))) {
        set_error(error, "cannot add module: " + llvm::toString(std::move(err)));
        return nullptr;
    }

    auto kernel = (*jit)->lookup(symbol);
    if (!kernel) {
        set_error(error, std::string("cannot materialize ") + symbol + ": " +
                             llvm::toString(kernel.takeError()));
        return nullptr;
    }
    auto engine = std::make_unique<orc_detail::Engine>();
    engine->jit = std::move(*jit);
    engine->kernel = kernel->getAddress();
    return engine;
}

}  // namespace

OrcJitProgram::~OrcJitProgram() = default;

bool orc_available() { return true; }

std::shared_ptr<const OrcJitProgram> OrcJitProgram::compile(
    std::shared_ptr<const runtime::ModelLayout> layout, std::string* error) {
    auto engine = materialize(*layout, runtime::LaneLayout::kVectorRow,
                              orc_detail::kStepBatchSymbol, error);
    if (engine == nullptr) {
        return nullptr;
    }
    auto program = std::shared_ptr<OrcJitProgram>(new OrcJitProgram());
    program->step_batch_fn_ = reinterpret_cast<StepBatchFn>(engine->kernel);
    program->engine_ = std::move(engine);
    program->layout_ = std::move(layout);
    return program;
}

std::shared_ptr<const OrcScalarProgram> OrcScalarProgram::compile(
    std::shared_ptr<const runtime::ModelLayout> layout, std::string* error) {
    auto engine = materialize(*layout, /*row_width=*/1, orc_detail::kStepSymbol, error);
    if (engine == nullptr) {
        return nullptr;
    }
    auto program = std::shared_ptr<OrcScalarProgram>(new OrcScalarProgram());
    program->step_fn_ = reinterpret_cast<StepFn>(engine->kernel);
    program->engine_ = std::move(engine);
    program->layout_ = std::move(layout);
    return program;
}

OrcScalarProgram::~OrcScalarProgram() = default;

#else  // !AMSVP_HAS_LLVM

// ---------------------------------------------------------------------------
// Stub build (AMSVP_WITH_LLVM=OFF): both compile()s report unavailability;
// sweeps that asked for kNativeOrc and ModelCache::scalar_executor
// executors run on the fused interpreter.

namespace orc_detail {
class Engine {};
}  // namespace orc_detail

namespace {
void set_unavailable(std::string* error) {
    if (error != nullptr) {
        *error = "in-process ORC JIT unavailable: built with AMSVP_WITH_LLVM=OFF";
    }
}
}  // namespace

OrcJitProgram::~OrcJitProgram() = default;
OrcScalarProgram::~OrcScalarProgram() = default;

bool orc_available() { return false; }

std::shared_ptr<const OrcJitProgram> OrcJitProgram::compile(
    std::shared_ptr<const runtime::ModelLayout> /*layout*/, std::string* error) {
    set_unavailable(error);
    return nullptr;
}

std::shared_ptr<const OrcScalarProgram> OrcScalarProgram::compile(
    std::shared_ptr<const runtime::ModelLayout> /*layout*/, std::string* error) {
    set_unavailable(error);
    return nullptr;
}

#endif  // AMSVP_HAS_LLVM

}  // namespace amsvp::codegen
