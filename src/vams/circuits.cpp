#include "vams/circuits.hpp"

#include <stdexcept>

#include "support/strings.hpp"

namespace amsvp::vams {

std::string rc_ladder_source(int stages, double r_ohms, double c_farads) {
    if (stages < 1) {
        throw std::invalid_argument("vams::rc_ladder_source: needs at least one stage, got " +
                                    std::to_string(stages));
    }
    std::string src;
    src += "// n-order RC filter built by cascading RC stages (Section V-A).\n";
    src += "module rc" + std::to_string(stages) + "(in, out, gnd);\n";
    src += "  electrical in, out, gnd";
    for (int i = 1; i < stages; ++i) {
        src += ", n" + std::to_string(i);
    }
    src += ";\n";
    src += "  ground gnd;\n";
    src += "  parameter real R = " + support::format_double(r_ohms) + ";\n";
    src += "  parameter real C = " + support::format_double(c_farads) + ";\n";
    src += "  analog begin\n";
    src += "    V(in, gnd) <+ u0;\n";
    std::string prev = "in";
    for (int i = 1; i <= stages; ++i) {
        const std::string mid = (i == stages) ? "out" : "n" + std::to_string(i);
        src += "    I(" + prev + ", " + mid + ") <+ V(" + prev + ", " + mid + ") / R;\n";
        src += "    I(" + mid + ", gnd) <+ C * ddt(V(" + mid + ", gnd));\n";
        prev = mid;
    }
    src += "  end\n";
    src += "endmodule\n";
    return src;
}

std::string two_inputs_source() {
    return R"(// Two-inputs summing amplifier (Fig. 8a) around the op-amp
// macromodel of Fig. 8b. Paper parameters: R1=3k, R2=14k, R3=10k.
module two_inputs(in1, in2, out, gnd);
  electrical in1, in2, inv, eo, out, gnd;
  ground gnd;
  parameter real R1   = 3k;
  parameter real R2   = 14k;
  parameter real R3   = 10k;
  parameter real RIN  = 1M;
  parameter real ROUT = 20;
  parameter real A    = 100k;
  analog begin
    V(in1, gnd) <+ u0;
    V(in2, gnd) <+ u1;
    I(in1, inv) <+ V(in1, inv) / R1;
    I(in2, inv) <+ V(in2, inv) / R2;
    I(inv, out) <+ V(inv, out) / R3;
    // Op-amp macromodel: differential input resistance and an inverting
    // controlled source behind the output resistance.
    I(inv, gnd) <+ V(inv, gnd) / RIN;
    V(eo, gnd)  <+ -A * V(inv, gnd);
    I(eo, out)  <+ V(eo, out) / ROUT;
  end
endmodule
)";
}

std::string opamp_source() {
    return R"(// Active low-pass filter built around the operational amplifier of
// Fig. 8b (the Verilog-AMS description shown in Fig. 2). Paper parameters:
// R1=400, R2=1.6k, C1=40n, Rin=1M, Rout=20.
module opamp_filter(in, out, gnd);
  electrical in, inv, eo, out, gnd;     // block (a): declarations
  ground gnd;
  parameter real R1   = 400;
  parameter real R2   = 1.6k;
  parameter real C1   = 40n;
  parameter real RIN  = 1M;
  parameter real ROUT = 20;
  parameter real A    = 100k;
  analog begin
    // block (b): input drive (signal-flow style boundary)
    V(in, gnd) <+ u0;
    // block (c): conservative network
    I(in, inv)  <+ V(in, inv) / R1;
    I(inv, out) <+ V(inv, out) / R2;
    I(inv, out) <+ C1 * ddt(V(inv, out));
    I(inv, gnd) <+ V(inv, gnd) / RIN;
    V(eo, gnd)  <+ -A * V(inv, gnd);
    I(eo, out)  <+ V(eo, out) / ROUT;
  end
endmodule
)";
}

std::string signal_flow_lowpass_source() {
    return R"(// Pure signal-flow first-order low-pass: x' = (u - x) / tau.
// Matches Eq. 1 of the paper; converted statement-by-statement.
module sf_lowpass(out);
  electrical out;
  parameter real TAU = 125u;
  real x;
  analog begin
    x = idt((u0 - x) / TAU);
    V(out) <+ x;
  end
endmodule
)";
}

}  // namespace amsvp::vams
