#include "codegen/native_model.hpp"

#include <atomic>
#include <cstdio>

#include "codegen/codegen.hpp"
#include "runtime/compiled_model.hpp"
#include "support/check.hpp"

namespace amsvp::codegen {

namespace {

/// The generated struct plus a C ABI wrapper the loader binds to.
std::string wrapper_source(const abstraction::SignalFlowModel& model) {
    CodegenOptions options;
    options.type_name = "amsvp_native_model";
    options.slot_accessor = true;
    std::string src = emit_cpp(model, options);
    src += "\nnamespace { amsvp_native_model g_model; }\n";
    src += "\nextern \"C\" void amsvp_reset() { g_model = amsvp_native_model(); }\n";
    src += "\n// Current output values without stepping — the loader refreshes its\n";
    src += "// cached outputs after a reset so reads before the next step see the\n";
    src += "// re-initialized model, like the interpreter does.\n";
    src += "extern \"C\" void amsvp_outputs(double* outputs) {\n";
    for (std::size_t i = 0; i < model.outputs.size(); ++i) {
        src += "    outputs[" + std::to_string(i) + "] = g_model.output" + std::to_string(i) +
               "();\n";
    }
    src += "}\n";
    src += "\nextern \"C\" void amsvp_step(const double* inputs, double t, double* outputs) {\n";
    for (std::size_t i = 0; i < model.inputs.size(); ++i) {
        src += "    g_model." + model.inputs[i].identifier() + " = inputs[" +
               std::to_string(i) + "];\n";
    }
    src += "    g_model.step(t);\n";
    src += "    amsvp_outputs(outputs);\n";
    src += "}\n";
    src += "\nextern \"C\" double amsvp_slot(int i) { return g_model.slot_value(i); }\n";
    src += "\nextern \"C\" int amsvp_slot_count() { return amsvp_native_model::slot_count; }\n";
    return src;
}

}  // namespace

bool native_compilation_available() {
    return detail::jit_available();
}

std::unique_ptr<NativeModel> NativeModel::compile(const abstraction::SignalFlowModel& model,
                                                  std::string* error) {
    auto library = detail::JitLibrary::compile(
        wrapper_source(model),
        {"amsvp_reset", "amsvp_step", "amsvp_outputs", "amsvp_slot", "amsvp_slot_count"},
        error);
    if (library == nullptr) {
        return nullptr;
    }
    auto native = std::unique_ptr<NativeModel>(new NativeModel());
    native->reset_fn_ = reinterpret_cast<ResetFn>(library->symbols()[0]);
    native->step_fn_ = reinterpret_cast<StepFn>(library->symbols()[1]);
    native->outputs_fn_ = reinterpret_cast<OutputsFn>(library->symbols()[2]);
    native->slot_fn_ = reinterpret_cast<SlotFn>(library->symbols()[3]);
    native->slot_count_fn_ = reinterpret_cast<SlotCountFn>(library->symbols()[4]);
    native->library_ = std::move(library);
    native->inputs_.assign(model.inputs.size(), 0.0);
    native->outputs_.assign(model.outputs.size(), 0.0);
    native->timestep_ = model.timestep;
    native->reset();
    return native;
}

NativeModel::~NativeModel() = default;

runtime::ExecutorFactory native_executor_factory() {
    return [](const abstraction::SignalFlowModel& model)
               -> std::unique_ptr<runtime::ModelExecutor> {
        std::string error;
        if (auto native = NativeModel::compile(model, &error)) {
            return native;
        }
        // atomic: executor factories run from worker threads too.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            std::fprintf(stderr,
                         "amsvp: native model execution unavailable (%s); "
                         "falling back to the fused interpreter\n",
                         error.c_str());
        }
        return std::make_unique<runtime::CompiledModel>(model);
    };
}

}  // namespace amsvp::codegen
