// SPICE-subset netlist parser.
#include "netlist/parser.h"

#include <gtest/gtest.h>

namespace symref::netlist {
namespace {

TEST(Parser, BasicElements) {
  const Circuit c = parse_netlist(R"(
R1 in out 1k
C1 out 0 30p
L1 out tail 10u
G1 o2 0 out 0 2m
E1 o3 0 out 0 10
V1 in 0 AC 1
I1 o2 0 AC 2m
)");
  EXPECT_EQ(c.element_count(), 7u);
  EXPECT_DOUBLE_EQ(c.find_element("R1")->value, 1e3);
  EXPECT_DOUBLE_EQ(c.find_element("C1")->value, 30e-12);
  EXPECT_DOUBLE_EQ(c.find_element("L1")->value, 10e-6);
  EXPECT_EQ(c.find_element("G1")->kind, ElementKind::Vccs);
  EXPECT_DOUBLE_EQ(c.find_element("G1")->value, 2e-3);
  EXPECT_EQ(c.find_element("E1")->kind, ElementKind::Vcvs);
  EXPECT_DOUBLE_EQ(c.find_element("V1")->value, 1.0);
  EXPECT_DOUBLE_EQ(c.find_element("I1")->value, 2e-3);
}

TEST(Parser, SourceDefaultsToUnitMagnitude) {
  const Circuit c = parse_netlist("V1 in 0\n");
  EXPECT_DOUBLE_EQ(c.find_element("V1")->value, 1.0);
}

TEST(Parser, CurrentControlledSources) {
  const Circuit c = parse_netlist(R"(
V1 a 0 0
F1 b 0 V1 5
H1 c 0 V1 2k
R1 b 0 1k
R2 c 0 1k
R3 a 0 1k
)");
  EXPECT_EQ(c.find_element("F1")->kind, ElementKind::Cccs);
  EXPECT_EQ(c.find_element("F1")->ctrl_branch, "V1");
  EXPECT_EQ(c.find_element("H1")->kind, ElementKind::Ccvs);
  EXPECT_DOUBLE_EQ(c.find_element("H1")->value, 2e3);
}

TEST(Parser, CommentsAndContinuations) {
  const Circuit c = parse_netlist(R"(
* full-line comment
# another comment
R1 a 0 1k ; trailing comment
C1 a
+ 0
+ 10p $ continued over three lines
)");
  EXPECT_EQ(c.element_count(), 2u);
  EXPECT_DOUBLE_EQ(c.find_element("C1")->value, 10e-12);
}

TEST(Parser, TitleDirective) {
  const Circuit c = parse_netlist(".title my amplifier\nR1 a 0 1k\n.end\n");
  EXPECT_EQ(c.title, "my amplifier");
}

TEST(Parser, EndStopsParsing) {
  const Circuit c = parse_netlist("R1 a 0 1k\n.end\nR2 b 0 2k\n");
  EXPECT_EQ(c.element_count(), 1u);
}

TEST(Parser, OpampCard) {
  const Circuit c = parse_netlist("O1 out inp inn\n");
  const Element* op = c.find_element("O1");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->kind, ElementKind::IdealOpAmp);
}

TEST(Parser, BjtModelExpansion) {
  const Circuit c = parse_netlist(R"(
.model qn bjt gm=4m beta=200 ro=50k cpi=20p cmu=2p rb=100
Q1 c b e qn
)");
  // rb creates the internal base node; expansion yields rb, rpi, cpi, cmu,
  // gm, ro.
  EXPECT_NE(c.find_element("Q1.rb"), nullptr);
  EXPECT_NE(c.find_element("Q1.rpi"), nullptr);
  EXPECT_NE(c.find_element("Q1.cpi"), nullptr);
  EXPECT_NE(c.find_element("Q1.cmu"), nullptr);
  EXPECT_NE(c.find_element("Q1.gm"), nullptr);
  EXPECT_NE(c.find_element("Q1.ro"), nullptr);
  EXPECT_DOUBLE_EQ(c.find_element("Q1.gm")->value, 4e-3);
  EXPECT_DOUBLE_EQ(c.find_element("Q1.rpi")->value, 200.0 / 4e-3);
}

TEST(Parser, MosModelExpansion) {
  const Circuit c = parse_netlist(R"(
.model mn mos gm=1m gds=50u cgs=50f cgd=10f cdb=20f
M1 d g s mn
)");
  EXPECT_NE(c.find_element("M1.gm"), nullptr);
  EXPECT_NE(c.find_element("M1.gds"), nullptr);
  EXPECT_DOUBLE_EQ(c.find_element("M1.cgs")->value, 50e-15);
}

TEST(Parser, SubcircuitExpansion) {
  const Circuit c = parse_netlist(R"(
.subckt divider top bottom
R1 top mid 1k
R2 mid bottom 1k
.ends
X1 in out divider
X2 out 0 divider
)");
  EXPECT_EQ(c.element_count(), 4u);
  // Internal node "mid" is instance-prefixed; ports are mapped.
  EXPECT_NE(c.find_element("X1.R1"), nullptr);
  EXPECT_TRUE(c.find_node("X1.mid").has_value());
  EXPECT_TRUE(c.find_node("X2.mid").has_value());
  const Element* x1r1 = c.find_element("X1.R1");
  EXPECT_EQ(x1r1->node_pos, *c.find_node("in"));
}

TEST(Parser, NestedSubcircuitInstances) {
  const Circuit c = parse_netlist(R"(
.subckt leaf a b
R1 a b 1k
.ends
.subckt branch x y
X1 x mid leaf
X2 mid y leaf
.ends
X9 in 0 branch
)");
  EXPECT_EQ(c.element_count(), 2u);
  EXPECT_NE(c.find_element("X9.X1.R1"), nullptr);
  EXPECT_NE(c.find_element("X9.X2.R1"), nullptr);
  EXPECT_TRUE(c.find_node("X9.mid").has_value());
}

TEST(Parser, SubcircuitPortArityChecked) {
  EXPECT_THROW(parse_netlist(".subckt d a b\nR1 a b 1\n.ends\nX1 in d\n"), ParseError);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_netlist("R1 a 0 1k\nC1 a 0 zzz\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, ErrorsPointAtTheOffendingTokenColumn) {
  try {
    (void)parse_netlist("R1 a 0 1k\nC1 a 0   zzz\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 10);  // 'zzz' starts at column 10
    EXPECT_NE(std::string(e.what()).find("line 2, column 10"), std::string::npos);
  }
}

TEST(Parser, ContinuationTokensKeepTheirPhysicalLine) {
  // The bad value arrives on the continuation's physical line 3, column 5.
  try {
    (void)parse_netlist("R1 a 0 1k\nC1 a 0\n+   zzz\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 5);
  }
}

TEST(Parser, ModelParameterErrorsPointAtTheParameter) {
  try {
    (void)parse_netlist(".model t1 bjt gm=1m oops beta=100\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 21);  // 'oops'
  }
}

TEST(Parser, UnknownCardRejected) {
  EXPECT_THROW(parse_netlist("Z1 a 0 1k\n"), ParseError);
}

TEST(Parser, UnknownModelRejected) {
  EXPECT_THROW(parse_netlist("Q1 c b e nomodel\n"), ParseError);
}

TEST(Parser, UnknownSubcircuitRejected) {
  EXPECT_THROW(parse_netlist("X1 a b nothing\n"), ParseError);
}

TEST(Parser, MissingEndsRejected) {
  EXPECT_THROW(parse_netlist(".subckt d a b\nR1 a b 1\n"), ParseError);
}

TEST(Parser, ContinuationWithoutPreviousLineRejected) {
  EXPECT_THROW(parse_netlist("+ R1 a 0 1k\n"), ParseError);
}

TEST(Parser, GroundVariantsInsideSubckt) {
  const Circuit c = parse_netlist(R"(
.subckt g1 a
R1 a gnd 1k
.ends
X1 in g1
)");
  const Element* r = c.find_element("X1.R1");
  EXPECT_EQ(r->node_neg, 0);  // gnd is global, never prefixed
}

TEST(Parser, LowercaseCardsAndNumericNodes) {
  const Circuit c = parse_netlist("r1 1 2 1k\nc1 2 0 1n\n");
  EXPECT_EQ(c.element_count(), 2u);
  EXPECT_TRUE(c.find_node("1").has_value());
  EXPECT_TRUE(c.find_node("2").has_value());
}

TEST(Parser, DcAndAcTokens) {
  const Circuit c = parse_netlist("V1 in 0 DC 5 AC 0.5\n");
  // The last numeric token wins as the AC magnitude.
  EXPECT_DOUBLE_EQ(c.find_element("V1")->value, 0.5);
}

TEST(Parser, NegativeTransconductance) {
  const Circuit c = parse_netlist("G1 a 0 b 0 -2m\n");
  EXPECT_DOUBLE_EQ(c.find_element("G1")->value, -2e-3);
}

TEST(Parser, DuplicateInstanceNamesRejected) {
  EXPECT_THROW(parse_netlist("R1 a 0 1k\nR1 b 0 2k\n"), std::invalid_argument);
}

TEST(Parser, SubcktUsesGlobalModels) {
  const Circuit c = parse_netlist(R"(
.model qn bjt gm=1m beta=100 cpi=1p
.subckt amp b c
Q1 c b 0 qn
.ends
X1 base coll amp
)");
  EXPECT_NE(c.find_element("X1.Q1.gm"), nullptr);
  EXPECT_DOUBLE_EQ(c.find_element("X1.Q1.gm")->value, 1e-3);
}

// --- .param + {expr} -------------------------------------------------------

TEST(Parser, ParamAndBraceExpressions) {
  const Circuit c = parse_netlist(R"(
.param rbase=1k n=3
.param rtop={rbase * n}
R1 a 0 {rtop}
R2 a 0 {rbase / 2}
C1 a 0 { 10p * (1 + n) }
)");
  EXPECT_DOUBLE_EQ(c.find_element("R1")->value, 3e3);
  EXPECT_DOUBLE_EQ(c.find_element("R2")->value, 500.0);
  EXPECT_DOUBLE_EQ(c.find_element("C1")->value, 40e-12);
}

TEST(Parser, ParamIsCaseInsensitive) {
  const Circuit c = parse_netlist(".param RVal=2k\nR1 a 0 {rval}\nR2 a 0 {RVAL}\n");
  EXPECT_DOUBLE_EQ(c.find_element("R1")->value, 2e3);
  EXPECT_DOUBLE_EQ(c.find_element("R2")->value, 2e3);
}

TEST(Parser, LaterParamRedefinitionWins) {
  const Circuit c = parse_netlist(".param r=1k\nR1 a 0 {r}\n.param r=2k\nR2 a 0 {r}\n");
  EXPECT_DOUBLE_EQ(c.find_element("R1")->value, 1e3);
  EXPECT_DOUBLE_EQ(c.find_element("R2")->value, 2e3);
}

TEST(Parser, SourceMagnitudeAcceptsExpressions) {
  const Circuit c = parse_netlist(".param a=2\nV1 in 0 AC {a/4}\n");
  EXPECT_DOUBLE_EQ(c.find_element("V1")->value, 0.5);
}

TEST(Parser, ModelParametersAcceptExpressions) {
  const Circuit c = parse_netlist(R"(
.param gm0=2m
.model qn bjt gm={gm0} beta=100 cpi={gm0 * 1n / 2m}
Q1 c b 0 qn
)");
  EXPECT_DOUBLE_EQ(c.find_element("Q1.gm")->value, 2e-3);
  EXPECT_DOUBLE_EQ(c.find_element("Q1.cpi")->value, 1e-9);
}

TEST(Parser, UndefinedParameterPointsIntoTheExpression) {
  try {
    (void)parse_netlist("R1 a 0 1k\nC1 a 0 {2*cx}\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 11);  // 'cx' inside the braces
    EXPECT_NE(std::string(e.what()).find("undefined parameter 'cx'"), std::string::npos);
  }
}

TEST(Parser, DivisionByZeroPointsAtTheOperator) {
  try {
    (void)parse_netlist("R1 a 0 {1/0}\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 10);  // the '/'
    EXPECT_NE(std::string(e.what()).find("division by zero"), std::string::npos);
  }
}

TEST(Parser, DivisionByZeroThroughParametersDiagnosed) {
  EXPECT_THROW(parse_netlist(".param g=0\nR1 a 0 {1/g}\n"), ParseError);
}

TEST(Parser, UnterminatedBraceRejected) {
  try {
    (void)parse_netlist("R1 a 0 {1 + 2\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 8);  // the '{'
  }
}

TEST(Parser, MalformedParamCardRejected) {
  EXPECT_THROW(parse_netlist(".param\n"), ParseError);
  EXPECT_THROW(parse_netlist(".param novalue\n"), ParseError);
  EXPECT_THROW(parse_netlist(".param x=\n"), ParseError);
}

// --- Subcircuit parameters and scoping -------------------------------------

TEST(Parser, SubcktParameterDefaultsAndOverrides) {
  const Circuit c = parse_netlist(R"(
.subckt stage in out r=1k
R1 in out {r}
.ends
X1 a b stage
X2 b c stage r=5k
)");
  EXPECT_DOUBLE_EQ(c.find_element("X1.R1")->value, 1e3);
  EXPECT_DOUBLE_EQ(c.find_element("X2.R1")->value, 5e3);
}

TEST(Parser, SubcktDefaultsMayDeriveFromEarlierParameters) {
  // rout's default references gm — including a per-instance override of gm.
  const Circuit c = parse_netlist(R"(
.subckt ota in out gm=1m rout={2/gm}
G1 out 0 in 0 {gm}
R1 out 0 {rout}
.ends
X1 a b ota
X2 b c ota gm=4m
)");
  EXPECT_DOUBLE_EQ(c.find_element("X1.R1")->value, 2000.0);
  EXPECT_DOUBLE_EQ(c.find_element("X2.R1")->value, 500.0);
}

TEST(Parser, InstanceOverridesEvaluateInTheCallerScope) {
  const Circuit c = parse_netlist(R"(
.param rmain=8k
.subckt stage a b r=1k
R1 a b {r}
.ends
X1 in out stage r={rmain/2}
)");
  EXPECT_DOUBLE_EQ(c.find_element("X1.R1")->value, 4e3);
}

TEST(Parser, InstanceParameterShadowsGlobal) {
  const Circuit c = parse_netlist(R"(
.param r=1k
.subckt stage a b r=2k
R1 a b {r}
.ends
X1 in out stage
Rtop in 0 {r}
)");
  EXPECT_DOUBLE_EQ(c.find_element("X1.R1")->value, 2e3);  // subckt default shadows
  EXPECT_DOUBLE_EQ(c.find_element("Rtop")->value, 1e3);   // global untouched
}

TEST(Parser, BodyParamShadowsInItsScopeOnly) {
  const Circuit c = parse_netlist(R"(
.param c=1p
.subckt filt a
.param c=5p
C1 a 0 {c}
.ends
X1 n1 filt
Cmain n1 0 {c}
)");
  EXPECT_DOUBLE_EQ(c.find_element("X1.C1")->value, 5e-12);
  EXPECT_DOUBLE_EQ(c.find_element("Cmain")->value, 1e-12);
}

TEST(Parser, SubcktBodySeesCallerParameters) {
  // Dynamic chain: the body resolves names through the instantiating scope.
  const Circuit c = parse_netlist(R"(
.param rglobal=7k
.subckt stage a b
R1 a b {rglobal}
.ends
X1 in out stage
)");
  EXPECT_DOUBLE_EQ(c.find_element("X1.R1")->value, 7e3);
}

TEST(Parser, UnknownInstanceParameterRejected) {
  try {
    (void)parse_netlist(".subckt s a b r=1\nR1 a b {r}\n.ends\nX1 in out s q=2\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("has no parameter 'q'"), std::string::npos);
  }
}

TEST(Parser, PortAfterParameterDefaultRejected) {
  EXPECT_THROW(parse_netlist(".subckt s a r=1 b\n.ends\n"), ParseError);
}

// --- Nested definitions and recursion --------------------------------------

TEST(Parser, NestedSubcktDefinitionsAreLexicallyScoped) {
  const Circuit c = parse_netlist(R"(
.subckt outer a b
.subckt inner x y
R1 x y 1k
.ends
X1 a m inner
X2 m b inner
.ends
Xtop in out outer
)");
  EXPECT_EQ(c.element_count(), 2u);
  EXPECT_NE(c.find_element("Xtop.X1.R1"), nullptr);
  EXPECT_NE(c.find_element("Xtop.X2.R1"), nullptr);
  // `inner` is not visible at top level.
  EXPECT_THROW(parse_netlist(R"(
.subckt outer a b
.subckt inner x y
R1 x y 1k
.ends
X1 a b inner
.ends
X9 p q inner
)"),
               ParseError);
}

TEST(Parser, InnerDefinitionShadowsOuter) {
  const Circuit c = parse_netlist(R"(
.subckt leaf a
R1 a 0 1k
.ends
.subckt wrap b
.subckt leaf a
R1 a 0 9k
.ends
X1 b leaf
.ends
Xw n1 wrap
Xl n2 leaf
)");
  EXPECT_DOUBLE_EQ(c.find_element("Xw.X1.R1")->value, 9e3);  // inner definition
  EXPECT_DOUBLE_EQ(c.find_element("Xl.R1")->value, 1e3);     // outer definition
}

TEST(Parser, SelfRecursionDiagnosedCleanly) {
  try {
    (void)parse_netlist(".subckt loop a\nX1 a loop\n.ends\nXtop in loop\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);  // the X card that closes the cycle
    EXPECT_NE(std::string(e.what()).find("recursive subcircuit instantiation"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("loop -> loop"), std::string::npos);
  }
}

TEST(Parser, MutualRecursionDiagnosedCleanly) {
  try {
    (void)parse_netlist(R"(
.subckt a p
X1 p b
.ends
.subckt b p
X1 p a
.ends
Xtop in a
)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("a -> b -> a"), std::string::npos);
  }
}

TEST(Parser, EndInsideSubcktRejected) {
  EXPECT_THROW(parse_netlist(".subckt s a\nR1 a 0 1\n.end\n"), ParseError);
}

TEST(Parser, StrayEndsRejected) {
  EXPECT_THROW(parse_netlist("R1 a 0 1k\n.ends\n"), ParseError);
}

// --- NetlistTemplate: re-elaboration with overrides -------------------------

TEST(NetlistTemplate, ParameterNamesAndOverrides) {
  const NetlistTemplate tpl = parse_netlist_template(R"(
.param r=1k c=10p
R1 a 0 {r}
C1 a 0 {c}
)");
  ASSERT_TRUE(tpl.valid());
  ASSERT_EQ(tpl.parameter_names().size(), 2u);
  EXPECT_EQ(tpl.parameter_names()[0], "r");
  EXPECT_EQ(tpl.parameter_names()[1], "c");
  EXPECT_TRUE(tpl.has_parameter("R"));  // case-insensitive
  EXPECT_FALSE(tpl.has_parameter("x"));

  const Circuit nominal = tpl.elaborate();
  EXPECT_DOUBLE_EQ(nominal.find_element("R1")->value, 1e3);
  const Circuit swept = tpl.elaborate({{"r", 4.7e3}});
  EXPECT_DOUBLE_EQ(swept.find_element("R1")->value, 4.7e3);
  EXPECT_DOUBLE_EQ(swept.find_element("C1")->value, 10e-12);  // untouched
}

TEST(NetlistTemplate, OverridesPropagateThroughDerivedParameters) {
  const NetlistTemplate tpl = parse_netlist_template(R"(
.param r=1k
.param r2={2*r}
R1 a 0 {r2}
)");
  EXPECT_DOUBLE_EQ(tpl.elaborate().find_element("R1")->value, 2e3);
  EXPECT_DOUBLE_EQ(tpl.elaborate({{"r", 5e3}}).find_element("R1")->value, 10e3);
}

TEST(NetlistTemplate, UnknownOverrideRejected) {
  const NetlistTemplate tpl = parse_netlist_template(".param r=1\nR1 a 0 {r}\n");
  EXPECT_THROW((void)tpl.elaborate({{"nope", 1.0}}), std::invalid_argument);
}

TEST(NetlistTemplate, EmptyTemplateRejected) {
  const NetlistTemplate tpl;
  EXPECT_FALSE(tpl.valid());
  EXPECT_THROW((void)tpl.elaborate(), std::invalid_argument);
}

TEST(NetlistTemplate, ElaborationIsRepeatable) {
  const NetlistTemplate tpl = parse_netlist_template(R"(
.param scale=1
.subckt cell a b r=1k
R1 a b {r * scale}
.ends
X1 in mid cell
X2 mid out cell r=2k
)");
  const Circuit a = tpl.elaborate();
  const Circuit b = tpl.elaborate();
  ASSERT_EQ(a.element_count(), b.element_count());
  for (std::size_t i = 0; i < a.element_count(); ++i) {
    EXPECT_EQ(a.elements()[i].name, b.elements()[i].name);
    EXPECT_EQ(a.elements()[i].value, b.elements()[i].value);
  }
}

}  // namespace
}  // namespace symref::netlist
