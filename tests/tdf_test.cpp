#include <gtest/gtest.h>

#include "backends/tdf_modules.hpp"
#include "tdf/tdf.hpp"

namespace amsvp::tdf {
namespace {

/// Emits 1, 2, 3, ... one sample per firing.
class Counter final : public TdfModule {
public:
    explicit Counter(std::string name) : TdfModule(std::move(name)), out(*this, "out") {}
    void processing() override { out.write(static_cast<double>(++count_)); }
    TdfOut out;

private:
    int count_ = 0;
};

/// Adds two inputs.
class Adder final : public TdfModule {
public:
    explicit Adder(std::string name)
        : TdfModule(std::move(name)), a(*this, "a"), b(*this, "b"), out(*this, "out") {}
    void processing() override { out.write(a.read() + b.read()); }
    TdfIn a;
    TdfIn b;
    TdfOut out;
};

/// Consumes `rate` samples per firing and emits their sum (decimator).
class SumDecimator final : public TdfModule {
public:
    SumDecimator(std::string name, int rate)
        : TdfModule(std::move(name)), in(*this, "in", rate), out(*this, "out") {}
    void processing() override {
        double acc = 0;
        for (int i = 0; i < in.rate(); ++i) {
            acc += in.read();
        }
        out.write(acc);
    }
    TdfIn in;
    TdfOut out;
};

/// Records everything it receives.
class Recorder final : public TdfModule {
public:
    explicit Recorder(std::string name) : TdfModule(std::move(name)), in(*this, "in") {}
    void processing() override { values.push_back(in.read()); }
    TdfIn in;
    std::vector<double> values;
};

TEST(TdfCluster, SingleRateChainRunsInOrder) {
    Counter source("src");
    Recorder sink("sink");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(sink);
    cluster.connect(source.out, sink.in);
    cluster.set_timestep(source, 1e-6);
    ASSERT_TRUE(cluster.elaborate());

    cluster.run(5e-6);
    EXPECT_EQ(sink.values, (std::vector<double>{1, 2, 3, 4, 5}));
    EXPECT_EQ(source.firing_count(), 5u);
}

TEST(TdfCluster, FanOutDeliversToAllConsumers) {
    Counter source("src");
    Recorder sink1("sink1");
    Recorder sink2("sink2");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(sink1);
    cluster.add(sink2);
    cluster.connect(source.out, sink1.in);
    cluster.connect(source.out, sink2.in);
    cluster.set_timestep(source, 1e-6);
    ASSERT_TRUE(cluster.elaborate());
    cluster.run(3e-6);
    EXPECT_EQ(sink1.values, sink2.values);
    EXPECT_EQ(sink1.values.size(), 3u);
}

TEST(TdfCluster, DiamondTopologySchedulesProducersFirst) {
    Counter source("src");
    Adder adder("add");
    Counter source2("src2");
    Recorder sink("sink");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(source2);
    cluster.add(adder);
    cluster.add(sink);
    cluster.connect(source.out, adder.a);
    cluster.connect(source2.out, adder.b);
    cluster.connect(adder.out, sink.in);
    cluster.set_timestep(adder, 1e-6);
    ASSERT_TRUE(cluster.elaborate());
    cluster.run(4e-6);
    EXPECT_EQ(sink.values, (std::vector<double>{2, 4, 6, 8}));
}

TEST(TdfCluster, MultirateDecimatorFiresAtReducedRate) {
    Counter source("src");
    SumDecimator decimator("dec", 4);
    Recorder sink("sink");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(decimator);
    cluster.add(sink);
    cluster.connect(source.out, decimator.in);
    cluster.connect(decimator.out, sink.in);
    cluster.set_timestep(source, 1e-6);
    ASSERT_TRUE(cluster.elaborate());

    // One cluster period = 4 source firings = 1 decimator firing.
    EXPECT_DOUBLE_EQ(cluster.cluster_period(), 4e-6);
    cluster.step();
    cluster.step();
    ASSERT_EQ(sink.values.size(), 2u);
    EXPECT_DOUBLE_EQ(sink.values[0], 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(sink.values[1], 5 + 6 + 7 + 8);
    // The decimator's own timestep is 4x the source timestep.
    EXPECT_DOUBLE_EQ(decimator.timestep(), 4e-6);
    EXPECT_DOUBLE_EQ(source.timestep(), 1e-6);
}

TEST(TdfCluster, FiringTimesFollowConvention) {
    Counter source("src");
    Recorder sink("sink");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(sink);
    cluster.connect(source.out, sink.in);
    cluster.set_timestep(source, 2e-6);
    ASSERT_TRUE(cluster.elaborate());
    cluster.step();
    EXPECT_DOUBLE_EQ(source.time(), 2e-6);  // first firing at t = dt
    cluster.step();
    EXPECT_DOUBLE_EQ(source.time(), 4e-6);
}

TEST(TdfCluster, DeadlockDetected) {
    // Two modules feeding each other with no initial tokens cannot start.
    Adder a("a");
    Adder b("b");
    Counter seed("seed");
    TdfCluster cluster;
    cluster.add(a);
    cluster.add(b);
    cluster.add(seed);
    cluster.connect(seed.out, a.a);
    cluster.connect(a.out, b.a);
    cluster.connect(seed.out, b.b);
    cluster.connect(b.out, a.b);  // cycle a -> b -> a
    cluster.set_timestep(seed, 1e-6);
    std::string error;
    EXPECT_FALSE(cluster.elaborate(&error));
    EXPECT_NE(error.find("deadlock"), std::string::npos);
}

TEST(TdfCluster, AttachToDeKernelFiresPeriodically) {
    Counter source("src");
    Recorder sink("sink");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(sink);
    cluster.connect(source.out, sink.in);
    cluster.set_timestep(source, 1e-6);
    ASSERT_TRUE(cluster.elaborate());

    de::Simulator sim;
    cluster.attach(sim);
    sim.run_until(de::from_seconds(10e-6));
    EXPECT_EQ(sink.values.size(), 10u);
}

TEST(TdfModules, ModelModuleWrapsCompiledModel) {
    // y = 3 * u as a one-assignment model.
    abstraction::SignalFlowModel m;
    m.name = "gain";
    m.timestep = 1e-6;
    m.inputs.push_back(expr::input_symbol("u"));
    m.assignments.push_back(abstraction::Assignment{
        expr::variable_symbol("y"),
        expr::Expr::mul(expr::Expr::constant(3),
                        expr::Expr::symbol(expr::input_symbol("u")))});
    m.outputs.push_back(expr::variable_symbol("y"));

    backends::TdfSource source("src", numeric::constant(2.0));
    backends::TdfModel dut("dut", m, std::make_unique<runtime::CompiledModel>(m));
    backends::TdfSink sink("sink");
    TdfCluster cluster;
    cluster.add(source);
    cluster.add(dut);
    cluster.add(sink);
    cluster.connect(source.out, dut.input(0));
    cluster.connect(dut.output(0), sink.in);
    cluster.set_timestep(dut, m.timestep);
    ASSERT_TRUE(cluster.elaborate());
    cluster.run(3e-6);
    ASSERT_EQ(sink.trace().size(), 3u);
    EXPECT_DOUBLE_EQ(sink.trace().value(0), 6.0);
    EXPECT_DOUBLE_EQ(sink.last(), 6.0);
}

}  // namespace
}  // namespace amsvp::tdf
