// Shared fixtures of the conservative-engine tests (ELN, SPICE, cosim).
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "netlist/builder.hpp"

namespace amsvp::testing_support {

/// Two voltage sources in parallel: their currents are not determined, so
/// the tableau matrix (ELN) and the Newton Jacobian (SPICE) are singular.
inline netlist::Circuit parallel_sources_circuit() {
    netlist::CircuitBuilder cb("parallel");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    cb.voltage_source("V2", "a", "gnd", "u0");
    cb.resistor("R1", "a", "gnd", 1e3);
    return cb.build();
}

/// Runs `body`, which must throw `Exception` whose text contains every one
/// of `fragments`.
template <typename Exception, typename Body>
void expect_throw_containing(Body body, std::initializer_list<const char*> fragments) {
    EXPECT_THROW(
        {
            try {
                body();
            } catch (const Exception& e) {
                for (const char* fragment : fragments) {
                    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
                        << e.what();
                }
                throw;
            }
        },
        Exception);
}

}  // namespace amsvp::testing_support
