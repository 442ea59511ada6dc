#include "runtime/executor.hpp"

#include "runtime/compiled_model.hpp"
#include "support/check.hpp"

namespace amsvp::runtime {

ExecutorFactory fused_executor_factory() {
    return [](const abstraction::SignalFlowModel& model) -> std::unique_ptr<ModelExecutor> {
        return std::make_unique<CompiledModel>(model);
    };
}

ExecutorFactory shared_layout_executor_factory(std::shared_ptr<const ModelLayout> layout) {
    AMSVP_CHECK(layout != nullptr, "shared-layout factory needs a layout");
    return [layout](const abstraction::SignalFlowModel&) -> std::unique_ptr<ModelExecutor> {
        return std::make_unique<CompiledModel>(layout);
    };
}

}  // namespace amsvp::runtime
