#include "backends/tdf_modules.hpp"

#include "support/check.hpp"

namespace amsvp::backends {

TdfModel::TdfModel(std::string name, const abstraction::SignalFlowModel& model)
    : TdfModel(std::move(name), model, std::make_unique<runtime::CompiledModel>(model)) {}

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

BatchTdfModel::BatchTdfModel(std::string name,
                             std::shared_ptr<const runtime::ModelLayout> layout, int lanes)
    : TdfModule(std::move(name)), batch_(std::move(layout), lanes) {
    for (int l = 0; l < batch_.batch(); ++l) {
        for (std::size_t i = 0; i < batch_.input_count(); ++i) {
            inputs_.push_back(std::make_unique<tdf::TdfIn>(
                *this, "in" + std::to_string(i) + "_lane" + std::to_string(l)));
        }
    }
    for (int l = 0; l < batch_.batch(); ++l) {
        for (std::size_t i = 0; i < batch_.output_count(); ++i) {
            outputs_.push_back(std::make_unique<tdf::TdfOut>(
                *this, "out" + std::to_string(i) + "_lane" + std::to_string(l)));
        }
    }
}

BatchTdfModel::BatchTdfModel(std::string name, const abstraction::SignalFlowModel& model,
                             int lanes)
    : BatchTdfModel(std::move(name), runtime::ModelLayout::compile(model), lanes) {}

void BatchTdfModel::processing() {
    const std::size_t n_in = batch_.input_count();
    for (int l = 0; l < batch_.batch(); ++l) {
        for (std::size_t i = 0; i < n_in; ++i) {
            batch_.set_input(l, i, inputs_[port_index(l, i, n_in)]->read());
        }
    }
    batch_.step(time());
    const std::size_t n_out = batch_.output_count();
    for (int l = 0; l < batch_.batch(); ++l) {
        for (std::size_t i = 0; i < n_out; ++i) {
            outputs_[port_index(l, i, n_out)]->write(batch_.output(l, i));
        }
    }
}

}  // namespace amsvp::backends
