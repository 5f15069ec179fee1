// Transfer-function specification shared by the AC simulator and the
// interpolation engine.
//
// Ports are node-name pairs, so the same spec works on the original circuit
// (AC simulation) and on its canonicalized twin (interpolation) — node names
// are preserved by canonicalization.
#pragma once

#include <string>

namespace symref::mna {

struct TransferSpec {
  enum class Kind {
    /// H = (V(out+) - V(out-)) / (V(in+) - V(in-)), ideal voltage drive.
    VoltageGain,
    /// H = (V(out+) - V(out-)) / I(in), unit current injected in+ -> in-.
    Transimpedance,
  };

  Kind kind = Kind::VoltageGain;
  std::string in_pos;
  std::string in_neg = "0";
  std::string out_pos;
  std::string out_neg = "0";

  bool operator==(const TransferSpec&) const = default;

  static TransferSpec voltage_gain(std::string in_pos, std::string out_pos,
                                   std::string in_neg = "0", std::string out_neg = "0") {
    TransferSpec spec;
    spec.kind = Kind::VoltageGain;
    spec.in_pos = std::move(in_pos);
    spec.in_neg = std::move(in_neg);
    spec.out_pos = std::move(out_pos);
    spec.out_neg = std::move(out_neg);
    return spec;
  }

  static TransferSpec transimpedance(std::string in_pos, std::string out_pos,
                                     std::string in_neg = "0", std::string out_neg = "0") {
    TransferSpec spec;
    spec.kind = Kind::Transimpedance;
    spec.in_pos = std::move(in_pos);
    spec.in_neg = std::move(in_neg);
    spec.out_pos = std::move(out_pos);
    spec.out_neg = std::move(out_neg);
    return spec;
  }
};

}  // namespace symref::mna
