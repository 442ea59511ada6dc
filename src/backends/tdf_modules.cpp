#include "backends/tdf_modules.hpp"

#include "support/check.hpp"

namespace amsvp::backends {

TdfModel::TdfModel(std::string name, const abstraction::SignalFlowModel& model,
                   std::unique_ptr<runtime::ModelExecutor> executor)
    : TdfModule(std::move(name)), compiled_(std::move(executor)) {
    AMSVP_CHECK(compiled_ != nullptr, "TdfModel needs an executor");
    for (std::size_t i = 0; i < model.inputs.size(); ++i) {
        inputs_.push_back(
            std::make_unique<tdf::TdfIn>(*this, "in" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < model.outputs.size(); ++i) {
        outputs_.push_back(
            std::make_unique<tdf::TdfOut>(*this, "out" + std::to_string(i)));
    }
}

void TdfModel::processing() {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        compiled_->set_input(i, inputs_[i]->read());
    }
    compiled_->step(time());
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
        outputs_[i]->write(compiled_->output(i));
    }
}

}  // namespace amsvp::backends
