#include "netlist/parser.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <utility>

#include "netlist/devices.h"
#include "netlist/expression.h"
#include "numeric/units.h"

namespace symref::netlist {

namespace {

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// 1-based source position of a token (continuation lines keep the physical
/// line they came from, not the logical line's first line).
struct TokenPos {
  int line = 0;
  int column = 0;
};

struct LogicalLine {
  int number = 0;  // 1-based source line of the first physical line
  std::vector<std::string> tokens;
  std::vector<TokenPos> pos;  // parallel to tokens

  /// ParseError pointing at token `index` (falls back to the line when the
  /// index names a missing token).
  [[nodiscard]] ParseError error(std::size_t index, const std::string& message) const {
    if (index < pos.size()) return ParseError(pos[index].line, pos[index].column, message);
    return ParseError(number, message);
  }
};

/// Strip comments, join continuations, tokenize with source positions.
/// A `{...}` group is one token even when the expression contains spaces.
std::vector<LogicalLine> tokenize(std::string_view text) {
  std::vector<LogicalLine> lines;
  std::istringstream stream{std::string(text)};
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    // Trailing comments (only truncate, so columns stay those of the source).
    for (const char marker : {';', '$'}) {
      const auto pos = raw.find(marker);
      if (pos != std::string::npos) raw.erase(pos);
    }
    // Leading whitespace.
    std::size_t begin = raw.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    if (raw[begin] == '*' || raw[begin] == '#') continue;

    const bool continuation = raw[begin] == '+';
    if (continuation) ++begin;

    std::vector<std::string> tokens;
    std::vector<TokenPos> pos;
    std::size_t at = begin;
    while (at < raw.size()) {
      at = raw.find_first_not_of(" \t\r", at);
      if (at == std::string::npos) break;
      // Scan to the next whitespace, treating a balanced {...} group (which
      // may contain whitespace) as part of the current token.
      std::size_t end = at;
      while (end < raw.size()) {
        const char c = raw[end];
        if (c == ' ' || c == '\t' || c == '\r') break;
        if (c == '{') {
          const std::size_t open = end;
          int depth = 1;
          ++end;
          while (end < raw.size() && depth > 0) {
            if (raw[end] == '{') ++depth;
            if (raw[end] == '}') --depth;
            ++end;
          }
          if (depth > 0) {
            throw ParseError(number, static_cast<int>(open) + 1,
                             "unterminated '{' expression");
          }
          continue;
        }
        ++end;
      }
      tokens.push_back(raw.substr(at, end - at));
      pos.push_back({number, static_cast<int>(at) + 1});
      at = end;
    }
    if (tokens.empty()) continue;

    if (continuation) {
      if (lines.empty()) {
        throw ParseError(number, static_cast<int>(begin),
                         "continuation '+' with no previous line");
      }
      auto& previous = lines.back();
      previous.tokens.insert(previous.tokens.end(), tokens.begin(), tokens.end());
      previous.pos.insert(previous.pos.end(), pos.begin(), pos.end());
    } else {
      lines.push_back({number, std::move(tokens), std::move(pos)});
    }
  }
  return lines;
}

/// One `name=value` token, split. `pos` points at the value text; `name_pos`
/// at the token start (the name).
struct Assignment {
  std::string name;  // lowercased
  std::string value;
  TokenPos pos;
  TokenPos name_pos;
};

/// Split a `name=value` token; nullopt when it is not assignment-shaped
/// (no '=', empty name, or a `{...}` expression token).
std::optional<Assignment> split_assignment(const std::string& token, const TokenPos& pos) {
  if (token.empty() || token.front() == '{') return std::nullopt;
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return std::nullopt;
  Assignment a;
  a.name = to_lower(token.substr(0, eq));
  a.value = token.substr(eq + 1);
  a.name_pos = pos;
  a.pos = {pos.line, pos.column + static_cast<int>(eq) + 1};
  return a;
}

struct ModelCard {
  std::string type;  // "bjt" or "mos"
  /// Raw value text per key — evaluated at each Q/M instantiation, so model
  /// parameters may reference `.param` symbols of the instantiating scope.
  std::map<std::string, Assignment> params;
};

struct SubcktDef {
  std::string name;  // lowercased
  int header_line = 0;
  std::vector<std::string> ports;
  /// Parameter defaults from the header, in declaration order.
  std::vector<Assignment> defaults;
  std::vector<LogicalLine> body;
  /// Nested definitions, visible only inside this body (lexical scoping).
  std::map<std::string, int> locals;
  int parent = -1;  // enclosing definition index; -1 = top level
};

}  // namespace

namespace internal {

/// The immutable pass-1 product: tokenized top-level cards plus the
/// definition tables. elaborate() walks it without mutating it.
struct TemplateImpl {
  std::vector<LogicalLine> top_level;
  std::map<std::string, ModelCard> models;
  std::vector<SubcktDef> defs;
  std::map<std::string, int> top_defs;
  /// Top-level `.param` names (lowercased, first-definition order).
  std::vector<std::string> param_names;
};

}  // namespace internal

namespace {

using internal::TemplateImpl;

void collect_model(const LogicalLine& line, std::map<std::string, ModelCard>* models) {
  if (line.tokens.size() < 3) throw line.error(0, ".model needs a name and a type");
  ModelCard card;
  const std::string name = to_lower(line.tokens[1]);
  card.type = to_lower(line.tokens[2]);
  // "bjt"/"mos" are the legacy pre-linearized (small-signal) model types;
  // "d"/"npn"/"pnp"/"nmos"/"pmos" are large-signal device models consumed by
  // the dc:: Newton solver.
  if (card.type != "bjt" && card.type != "mos" && card.type != "d" && card.type != "npn" &&
      card.type != "pnp" && card.type != "nmos" && card.type != "pmos") {
    throw line.error(2, "unknown model type '" + card.type + "'");
  }
  for (std::size_t t = 3; t < line.tokens.size(); ++t) {
    auto assignment = split_assignment(line.tokens[t], line.pos[t]);
    if (!assignment || assignment->value.empty()) {
      throw line.error(t, "model parameter '" + line.tokens[t] + "' is not key=value");
    }
    card.params[assignment->name] = std::move(*assignment);
  }
  (*models)[name] = std::move(card);
}

/// Collect one .subckt block (recursively for nested definitions); returns
/// the index of the line after the matching .ends.
std::size_t collect_subckt(const std::vector<LogicalLine>& lines, std::size_t start,
                           int parent, TemplateImpl* out) {
  const LogicalLine& header = lines[start];
  if (header.tokens.size() < 2) throw header.error(0, ".subckt needs a name");

  const int self = static_cast<int>(out->defs.size());
  out->defs.emplace_back();
  {
    SubcktDef& def = out->defs[static_cast<std::size_t>(self)];
    def.name = to_lower(header.tokens[1]);
    def.header_line = header.number;
    def.parent = parent;
    // Header tail: ports until the first name=default assignment, then only
    // assignments (a port after a default would be ambiguous).
    bool in_defaults = false;
    for (std::size_t t = 2; t < header.tokens.size(); ++t) {
      auto assignment = split_assignment(header.tokens[t], header.pos[t]);
      if (assignment) {
        if (assignment->value.empty()) {
          throw header.error(t, "parameter default '" + header.tokens[t] +
                                    "' is missing a value");
        }
        in_defaults = true;
        def.defaults.push_back(std::move(*assignment));
      } else {
        if (in_defaults) {
          throw header.error(t, "port '" + header.tokens[t] +
                                    "' after parameter defaults (ports come first)");
        }
        def.ports.push_back(header.tokens[t]);
      }
    }
  }

  std::size_t i = start + 1;
  while (i < lines.size()) {
    const LogicalLine& line = lines[i];
    const std::string head = to_lower(line.tokens.front());
    if (head == ".ends") {
      SubcktDef& def = out->defs[static_cast<std::size_t>(self)];
      if (parent >= 0) {
        out->defs[static_cast<std::size_t>(parent)].locals[def.name] = self;
      } else {
        out->top_defs[def.name] = self;
      }
      return i + 1;
    }
    if (head == ".subckt") {
      i = collect_subckt(lines, i, self, out);
    } else if (head == ".model") {
      collect_model(line, &out->models);
      ++i;
    } else if (head == ".end") {
      throw line.error(0, "'.end' inside .subckt '" +
                              out->defs[static_cast<std::size_t>(self)].name +
                              "' (missing .ends)");
    } else {
      out->defs[static_cast<std::size_t>(self)].body.push_back(line);
      ++i;
    }
  }
  throw ParseError(out->defs[static_cast<std::size_t>(self)].header_line,
                   ".subckt '" + out->defs[static_cast<std::size_t>(self)].name +
                       "' has no matching .ends");
}

/// Parameter scope chain: a subcircuit body sees its own `.param`
/// definitions and instance parameters first, then the scope that
/// instantiated it, up to the netlist's top-level parameters.
struct Scope final : ParamEnv {
  const Scope* parent = nullptr;
  std::map<std::string, double, std::less<>> values;

  [[nodiscard]] const double* find(std::string_view name) const override {
    for (const Scope* s = this; s != nullptr; s = s->parent) {
      const auto it = s->values.find(name);
      if (it != s->values.end()) return &it->second;
    }
    return nullptr;
  }
};

/// Pass 2: expand one TemplateImpl into a Circuit. One Elaborator per
/// elaborate() call; reads the template, never writes it.
class Elaborator {
 public:
  Elaborator(const TemplateImpl& tpl, std::map<std::string, double> overrides)
      : tpl_(tpl), overrides_(std::move(overrides)) {}

  Circuit run() {
    Scope global;
    for (const LogicalLine& line : tpl_.top_level) {
      dispatch(line, /*prefix=*/"", /*port_map=*/{}, global, /*lexical_def=*/-1,
               /*top_level=*/true);
    }
    // `.ic` cards apply once every element (and with it every node) exists,
    // so a directive written above the cards it names still works.
    for (const PendingIc& ic : pending_ics_) {
      try {
        circuit_.set_initial_condition(ic.node, ic.volts);
      } catch (const std::invalid_argument& e) {
        throw ParseError(ic.pos.line, ic.pos.column, e.what());
      }
    }
    return std::move(circuit_);
  }

 private:
  /// A literal ("2.2k") or brace expression ("{2*c0}") value at a known
  /// source position.
  double eval_value(const std::string& text, const TokenPos& pos, const Scope& scope) const {
    if (!text.empty() && text.front() == '{') {
      // The tokenizer only produces balanced groups; re-check for values
      // that arrived through assignment splitting.
      if (text.size() < 2 || text.back() != '}') {
        throw ParseError(pos.line, pos.column, "unterminated '{' expression");
      }
      try {
        return evaluate_expression(std::string_view(text).substr(1, text.size() - 2), scope);
      } catch (const ExprError& e) {
        throw ParseError(pos.line, pos.column + 1 + static_cast<int>(e.offset()), e.what());
      }
    }
    const auto value = numeric::parse_engineering(text);
    if (!value) throw ParseError(pos.line, pos.column, "bad numeric value '" + text + "'");
    return *value;
  }

  double parse_value(const LogicalLine& line, std::size_t index, const Scope& scope) const {
    return eval_value(line.tokens[index], line.pos[index], scope);
  }

  /// Resolve a node token through the subcircuit port map and prefix.
  std::string resolve_node(const std::string& token,
                           const std::map<std::string, std::string>& port_map,
                           const std::string& prefix) const {
    if (is_ground_name(token)) return "0";
    const auto it = port_map.find(token);
    if (it != port_map.end()) return it->second;
    return prefix.empty() ? token : prefix + token;
  }

  void do_param(const LogicalLine& line, Scope& scope, bool top_level) {
    if (line.tokens.size() < 2) throw line.error(0, ".param needs name=value assignments");
    for (std::size_t t = 1; t < line.tokens.size(); ++t) {
      auto assignment = split_assignment(line.tokens[t], line.pos[t]);
      if (!assignment || assignment->value.empty()) {
        throw line.error(t, "'" + line.tokens[t] + "' is not a name=value assignment");
      }
      double value = 0.0;
      const auto it = top_level ? overrides_.find(assignment->name) : overrides_.end();
      if (it != overrides_.end()) {
        value = it->second;  // swept/overridden top-level parameter
      } else {
        value = eval_value(assignment->value, assignment->pos, scope);
      }
      scope.values[assignment->name] = value;  // later .param of the same name wins
    }
  }

  /// Transient source shape: `PULSE(v1 v2 td tr tf pw per)` or
  /// `SIN(vo va freq td theta)`. `(` is not tokenizer-special, so the group
  /// arrives as several tokens (`pulse(0`, `1`, ..., `10u)`); this scans
  /// forward until the closing `)`, advancing *index past the group.
  Waveform parse_source_waveform(const LogicalLine& line, std::size_t* index, const Scope& scope,
                                 WaveformKind kind) {
    std::vector<double> args;
    bool closed = false;
    auto push_arg = [&](std::string text, TokenPos pos) {
      if (!text.empty() && text.back() == ')') {
        closed = true;
        text.pop_back();
      }
      if (!text.empty()) args.push_back(eval_value(text, pos, scope));
    };

    const std::string& head = line.tokens[*index];
    const std::size_t open = head.find('(');
    if (open != std::string::npos) {
      push_arg(head.substr(open + 1),
               {line.pos[*index].line, line.pos[*index].column + static_cast<int>(open) + 1});
    }
    std::size_t t = *index;
    while (!closed) {
      ++t;
      if (t >= line.tokens.size()) {
        throw line.error(*index, "'" + head + "': missing ')'");
      }
      std::string text = line.tokens[t];
      TokenPos pos = line.pos[t];
      if (!text.empty() && text.front() == '(') {
        text.erase(0, 1);
        ++pos.column;
      }
      push_arg(std::move(text), pos);
    }
    *index = t;

    Waveform w;
    w.kind = kind;
    auto arg = [&](std::size_t i, double fallback) { return i < args.size() ? args[i] : fallback; };
    if (kind == WaveformKind::kPulse) {
      if (args.size() < 2 || args.size() > 7) {
        throw line.error(*index, "PULSE needs 2..7 arguments (v1 v2 td tr tf pw per)");
      }
      w.v1 = args[0];
      w.v2 = args[1];
      w.delay = arg(2, 0.0);
      w.rise = arg(3, 0.0);
      w.fall = arg(4, 0.0);
      w.width = arg(5, 0.0);
      w.period = arg(6, 0.0);
      for (const double d : {w.delay, w.rise, w.fall, w.width, w.period}) {
        if (d < 0.0) throw line.error(*index, "PULSE timing arguments must be >= 0");
      }
      if (w.period > 0.0 && w.period < w.rise + w.width + w.fall) {
        throw line.error(*index, "PULSE period shorter than rise + width + fall");
      }
    } else {
      if (args.size() < 3 || args.size() > 5) {
        throw line.error(*index, "SIN needs 3..5 arguments (vo va freq td theta)");
      }
      w.v1 = args[0];
      w.v2 = args[1];
      w.frequency = args[2];
      w.delay = arg(3, 0.0);
      w.damping = arg(4, 0.0);
      if (w.frequency <= 0.0) throw line.error(*index, "SIN frequency must be > 0");
      if (w.delay < 0.0 || w.damping < 0.0) {
        throw line.error(*index, "SIN delay and damping must be >= 0");
      }
    }
    return w;
  }

  /// `.ic v(node)=volts ...` (bare `node=volts` also accepted). Application
  /// is deferred to the end of run() so directive order does not matter.
  void do_ic(const LogicalLine& line, const std::map<std::string, std::string>& port_map,
             const std::string& prefix, const Scope& scope) {
    if (line.tokens.size() < 2) throw line.error(0, ".ic needs v(node)=value assignments");
    for (std::size_t t = 1; t < line.tokens.size(); ++t) {
      const std::string& token = line.tokens[t];
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        throw line.error(t, "'" + token + "' is not a v(node)=value assignment");
      }
      std::string target = token.substr(0, eq);
      int name_offset = 0;
      const std::string lowered = to_lower(target);
      if (lowered.size() > 2 && lowered.rfind("v(", 0) == 0 && lowered.back() == ')') {
        target = target.substr(2, target.size() - 3);
        name_offset = 2;
      }
      if (target.empty()) throw line.error(t, "'" + token + "': empty node name");
      const TokenPos value_pos = {line.pos[t].line,
                                  line.pos[t].column + static_cast<int>(eq) + 1};
      const double volts = eval_value(token.substr(eq + 1), value_pos, scope);
      pending_ics_.push_back({resolve_node(target, port_map, prefix),
                              volts,
                              {line.pos[t].line, line.pos[t].column + name_offset}});
    }
  }

  void dispatch(const LogicalLine& line, const std::string& prefix,
                const std::map<std::string, std::string>& port_map, Scope& scope,
                int lexical_def, bool top_level) {
    const std::string& first = line.tokens.front();
    const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(first[0])));
    const std::string name = prefix + first;

    auto node = [&](std::size_t index) -> std::string {
      if (index >= line.tokens.size()) {
        throw line.error(0, "'" + first + "': missing node");
      }
      return resolve_node(line.tokens[index], port_map, prefix);
    };
    auto value_token = [&](std::size_t index) -> std::size_t {
      if (index >= line.tokens.size()) {
        throw line.error(0, "'" + first + "': missing value");
      }
      return index;
    };
    auto require_tokens = [&](std::size_t count) {
      if (line.tokens.size() < count) {
        throw line.error(0, "'" + first + "': expected at least " +
                                std::to_string(count - 1) + " fields");
      }
    };

    switch (kind) {
      case 'r':
        require_tokens(4);
        circuit_.add_resistor(name, node(1), node(2), parse_value(line, value_token(3), scope));
        break;
      case 'c':
        require_tokens(4);
        circuit_.add_capacitor(name, node(1), node(2), parse_value(line, value_token(3), scope));
        break;
      case 'l':
        require_tokens(4);
        circuit_.add_inductor(name, node(1), node(2), parse_value(line, value_token(3), scope));
        break;
      case 'g':
        require_tokens(6);
        circuit_.add_vccs(name, node(1), node(2), node(3), node(4),
                          parse_value(line, value_token(5), scope));
        break;
      case 'e':
        require_tokens(6);
        circuit_.add_vcvs(name, node(1), node(2), node(3), node(4),
                          parse_value(line, value_token(5), scope));
        break;
      case 'f':
        require_tokens(5);
        circuit_.add_cccs(name, node(1), node(2), prefix + line.tokens[3],
                          parse_value(line, value_token(4), scope));
        break;
      case 'h':
        require_tokens(5);
        circuit_.add_ccvs(name, node(1), node(2), prefix + line.tokens[3],
                          parse_value(line, value_token(4), scope));
        break;
      case 'v':
      case 'i': {
        require_tokens(3);
        // Left to right: `dc <v>` sets the bias level, `ac <v>` the AC
        // magnitude, and a bare value (no keyword) sets both — so legacy
        // one-value cards keep meaning "AC magnitude" and a "DC 5 AC 0.5"
        // card means what SPICE says it means.
        double magnitude = 1.0;
        double dc = 0.0;
        Waveform waveform;
        for (std::size_t t = 3; t < line.tokens.size(); ++t) {
          const std::string word = to_lower(line.tokens[t]);
          if (word == "ac" || word == "dc") {
            if (t + 1 >= line.tokens.size()) {
              throw line.error(t, "'" + first + "': '" + word + "' needs a value");
            }
            const double v = parse_value(line, ++t, scope);
            (word == "ac" ? magnitude : dc) = v;
          } else if (word == "pulse" || word == "sin" || word.rfind("pulse(", 0) == 0 ||
                     word.rfind("sin(", 0) == 0) {
            waveform = parse_source_waveform(line, &t, scope,
                                             word.rfind("sin", 0) == 0 ? WaveformKind::kSin
                                                                       : WaveformKind::kPulse);
          } else {
            magnitude = parse_value(line, t, scope);
            dc = magnitude;
          }
        }
        Element& e = kind == 'v' ? circuit_.add_vsource(name, node(1), node(2), magnitude)
                                 : circuit_.add_isource(name, node(1), node(2), magnitude);
        e.dc_value = dc;
        e.waveform = waveform;
        break;
      }
      case 'o':
        require_tokens(4);
        circuit_.add_opamp(name, node(1), node(2), node(3));
        break;
      case 'd': {
        require_tokens(4);
        const ModelCard& card = find_model(line, 3, "d");
        DeviceModel m;
        auto get = [&](const char* key, double fallback) {
          return model_param_or(card, key, scope, fallback);
        };
        m.is = get("is", m.is);
        m.n = get("n", m.n);
        m.tt = get("tt", m.tt);
        m.cj = get("cj", m.cj);
        circuit_.add_diode(name, node(1), node(2), m);
        break;
      }
      case 'q': {
        require_tokens(5);
        const ModelCard& card = find_model(line, 4, "bjt", "npn", "pnp");
        if (card.type == "bjt") {
          // Legacy pre-linearized card: expand directly to the small-signal
          // hybrid-pi elements, no operating point needed.
          BjtParams p;
          auto get = [&](const char* key) { return model_param(card, key, scope); };
          p.gm = get("gm");
          p.beta = get("beta");
          p.ro = get("ro");
          p.rb = get("rb");
          p.cpi = get("cpi");
          p.cmu = get("cmu");
          p.ccs = get("ccs");
          expand_bjt(circuit_, name, node(1), node(2), node(3), p);
          break;
        }
        DeviceModel m;
        auto get = [&](const char* key, double fallback) {
          return model_param_or(card, key, scope, fallback);
        };
        m.is = get("is", m.is);
        m.n = get("n", m.n);
        m.bf = get("bf", m.bf);
        m.br = get("br", m.br);
        m.vaf = get("vaf", m.vaf);
        m.tf = get("tf", m.tf);
        m.cje = get("cje", m.cje);
        m.cjc = get("cjc", m.cjc);
        m.ccs = get("ccs", m.ccs);
        m.rb = get("rb", m.rb);
        circuit_.add_bjt(name, node(1), node(2), node(3), m, card.type == "pnp" ? -1 : 1);
        break;
      }
      case 'm': {
        require_tokens(5);
        const ModelCard& card = find_model(line, 4, "mos", "nmos", "pmos");
        if (card.type == "mos") {
          MosParams p;
          auto get = [&](const char* key) { return model_param(card, key, scope); };
          p.gm = get("gm");
          p.gds = get("gds");
          p.cgs = get("cgs");
          p.cgd = get("cgd");
          p.cdb = get("cdb");
          expand_mos(circuit_, name, node(1), node(2), node(3), p);
          break;
        }
        DeviceModel m;
        auto get = [&](const char* key, double fallback) {
          return model_param_or(card, key, scope, fallback);
        };
        m.kp = get("kp", m.kp);
        m.vto = get("vto", m.vto);
        m.lambda = get("lambda", m.lambda);
        m.cgs = get("cgs", m.cgs);
        m.cgd = get("cgd", m.cgd);
        m.cdb = get("cdb", m.cdb);
        circuit_.add_mos(name, node(1), node(2), node(3), m, card.type == "pmos" ? -1 : 1);
        break;
      }
      case 'x':
        expand_subckt(line, prefix, port_map, scope, lexical_def);
        break;
      case '.': {
        const std::string head = to_lower(first);
        if (head == ".title") {
          std::string title;
          for (std::size_t t = 1; t < line.tokens.size(); ++t) {
            if (t > 1) title += ' ';
            title += line.tokens[t];
          }
          circuit_.title = title;
        } else if (head == ".param") {
          do_param(line, scope, top_level);
        } else if (head == ".ic") {
          do_ic(line, port_map, prefix, scope);
        } else if (head == ".ends") {
          throw line.error(0, "'.ends' without a matching '.subckt'");
        } else {
          throw line.error(0, "unknown directive '" + first + "'");
        }
        break;
      }
      default:
        throw line.error(0, "unknown element card '" + first + "'");
    }
  }

  /// Look up a model card whose type is one of the accepted ones (null
  /// entries of the trailing types mean "only the first applies").
  const ModelCard& find_model(const LogicalLine& line, std::size_t index, const char* type,
                              const char* type2 = nullptr, const char* type3 = nullptr) const {
    const std::string model = to_lower(line.tokens[index]);
    const auto it = tpl_.models.find(model);
    const bool found = it != tpl_.models.end() &&
                       (it->second.type == type || (type2 != nullptr && it->second.type == type2) ||
                        (type3 != nullptr && it->second.type == type3));
    if (!found) {
      std::string wanted = type;
      if (type2 != nullptr) wanted += std::string("/") + type2;
      if (type3 != nullptr) wanted += std::string("/") + type3;
      throw line.error(index, "'" + line.tokens.front() + "': unknown " + wanted + " model '" +
                                  model + "'");
    }
    return it->second;
  }

  double model_param(const ModelCard& card, const char* key, const Scope& scope) const {
    const auto it = card.params.find(key);
    if (it == card.params.end()) return 0.0;
    return eval_value(it->second.value, it->second.pos, scope);
  }

  /// Like model_param(), but with an explicit per-key default for the
  /// large-signal device cards (where "absent" rarely means zero).
  double model_param_or(const ModelCard& card, const char* key, const Scope& scope,
                        double fallback) const {
    const auto it = card.params.find(key);
    if (it == card.params.end()) return fallback;
    return eval_value(it->second.value, it->second.pos, scope);
  }

  /// Definition lookup along the lexical chain (innermost wins), falling
  /// back to the top-level table.
  [[nodiscard]] int lookup_def(const std::string& name, int lexical) const {
    for (int s = lexical; s >= 0; s = tpl_.defs[static_cast<std::size_t>(s)].parent) {
      const auto& locals = tpl_.defs[static_cast<std::size_t>(s)].locals;
      const auto it = locals.find(name);
      if (it != locals.end()) return it->second;
    }
    const auto it = tpl_.top_defs.find(name);
    return it == tpl_.top_defs.end() ? -1 : it->second;
  }

  void expand_subckt(const LogicalLine& line, const std::string& outer_prefix,
                     const std::map<std::string, std::string>& outer_map,
                     const Scope& outer_scope, int lexical_def) {
    if (line.tokens.size() < 2) throw line.error(0, "X card needs a subckt name");

    // Trailing name=value tokens are instance parameter overrides; the last
    // remaining token is the subcircuit name.
    std::vector<Assignment> instance_params;
    std::size_t end = line.tokens.size();
    while (end > 1) {
      auto assignment = split_assignment(line.tokens[end - 1], line.pos[end - 1]);
      if (!assignment) break;
      if (assignment->value.empty()) {
        throw line.error(end - 1, "parameter override '" + line.tokens[end - 1] +
                                      "' is missing a value");
      }
      instance_params.push_back(std::move(*assignment));
      --end;
    }
    std::reverse(instance_params.begin(), instance_params.end());
    if (end < 2) throw line.error(0, "X card needs a subckt name");
    const std::size_t name_index = end - 1;
    const std::string subckt_name = to_lower(line.tokens[name_index]);

    const int def_index = lookup_def(subckt_name, lexical_def);
    if (def_index < 0) {
      throw line.error(name_index, "unknown subcircuit '" + line.tokens[name_index] + "'");
    }
    const SubcktDef& def = tpl_.defs[static_cast<std::size_t>(def_index)];

    const std::size_t node_count = name_index - 1;
    if (node_count != def.ports.size()) {
      throw line.error(0, "subckt '" + subckt_name + "' expects " +
                              std::to_string(def.ports.size()) + " nodes, got " +
                              std::to_string(node_count));
    }

    // Recursive instantiation would expand forever; diagnose the cycle with
    // the full instantiation chain instead of crashing on stack exhaustion.
    for (const int active : instantiation_stack_) {
      if (active == def_index) {
        std::string chain;
        bool in_cycle = false;
        for (const int d : instantiation_stack_) {
          if (d == def_index) in_cycle = true;
          if (!in_cycle) continue;
          chain += tpl_.defs[static_cast<std::size_t>(d)].name + " -> ";
        }
        chain += def.name;
        throw line.error(name_index, "recursive subcircuit instantiation: " + chain);
      }
    }

    const std::string prefix = outer_prefix + line.tokens.front() + ".";
    std::map<std::string, std::string> port_map;
    for (std::size_t p = 0; p < def.ports.size(); ++p) {
      // The instance's node tokens are resolved in the *outer* scope.
      port_map[def.ports[p]] = resolve_node(line.tokens[1 + p], outer_map, outer_prefix);
    }

    // Instance parameters: overrides evaluate in the CALLER's scope (their
    // expressions reference the instantiating context); defaults evaluate in
    // the child scope, so a later default may use an earlier parameter —
    // including one the instance overrode.
    Scope child;
    child.parent = &outer_scope;
    std::vector<bool> used(instance_params.size(), false);
    for (const Assignment& d : def.defaults) {
      double value = 0.0;
      bool overridden = false;
      for (std::size_t i = 0; i < instance_params.size(); ++i) {
        if (instance_params[i].name == d.name) {
          value = eval_value(instance_params[i].value, instance_params[i].pos, outer_scope);
          used[i] = true;
          overridden = true;
        }
      }
      if (!overridden) value = eval_value(d.value, d.pos, child);
      child.values[d.name] = value;
    }
    for (std::size_t i = 0; i < instance_params.size(); ++i) {
      if (!used[i]) {
        throw ParseError(instance_params[i].name_pos.line, instance_params[i].name_pos.column,
                         "subckt '" + subckt_name + "' has no parameter '" +
                             instance_params[i].name + "'");
      }
    }

    instantiation_stack_.push_back(def_index);
    for (const LogicalLine& body_line : def.body) {
      dispatch(body_line, prefix, port_map, child, def_index, /*top_level=*/false);
    }
    instantiation_stack_.pop_back();
  }

  struct PendingIc {
    std::string node;
    double volts = 0.0;
    TokenPos pos;
  };

  const TemplateImpl& tpl_;
  std::map<std::string, double> overrides_;  // lowercased keys
  Circuit circuit_;
  std::vector<int> instantiation_stack_;  // active definition indices
  std::vector<PendingIc> pending_ics_;    // applied after the element cards
};

}  // namespace

Circuit NetlistTemplate::elaborate(const std::map<std::string, double>& overrides) const {
  if (!impl_) throw std::invalid_argument("NetlistTemplate: empty template");
  std::map<std::string, double> lowered;
  for (const auto& [name, value] : overrides) {
    const std::string key = to_lower(name);
    if (std::find(impl_->param_names.begin(), impl_->param_names.end(), key) ==
        impl_->param_names.end()) {
      throw std::invalid_argument("netlist has no top-level parameter '" + key +
                                  "' (add a .param card to sweep it)");
    }
    lowered[key] = value;
  }
  return Elaborator(*impl_, std::move(lowered)).run();
}

const std::vector<std::string>& NetlistTemplate::parameter_names() const {
  static const std::vector<std::string> kEmpty;
  return impl_ ? impl_->param_names : kEmpty;
}

bool NetlistTemplate::has_parameter(std::string_view name) const {
  if (!impl_) return false;
  const std::string key = to_lower(name);
  return std::find(impl_->param_names.begin(), impl_->param_names.end(), key) !=
         impl_->param_names.end();
}

NetlistTemplate parse_netlist_template(std::string_view text) {
  auto impl = std::make_shared<TemplateImpl>();
  const std::vector<LogicalLine> lines = tokenize(text);

  // Pass 1: collect .model and .subckt definitions (models are global, even
  // when written inside a .subckt body; definitions nest lexically), keep
  // every other card in order, and record the top-level parameter names.
  std::size_t i = 0;
  while (i < lines.size()) {
    const LogicalLine& line = lines[i];
    const std::string head = to_lower(line.tokens.front());
    if (head == ".model") {
      collect_model(line, &impl->models);
      ++i;
    } else if (head == ".subckt") {
      i = collect_subckt(lines, i, /*parent=*/-1, impl.get());
    } else if (head == ".end") {
      break;
    } else {
      if (head == ".param") {
        for (std::size_t t = 1; t < line.tokens.size(); ++t) {
          const auto assignment = split_assignment(line.tokens[t], line.pos[t]);
          if (!assignment) continue;  // diagnosed during elaboration
          if (std::find(impl->param_names.begin(), impl->param_names.end(),
                        assignment->name) == impl->param_names.end()) {
            impl->param_names.push_back(assignment->name);
          }
        }
      }
      impl->top_level.push_back(line);
      ++i;
    }
  }

  NetlistTemplate tpl;
  tpl.impl_ = std::move(impl);
  return tpl;
}

Circuit parse_netlist(std::string_view text) {
  return parse_netlist_template(text).elaborate();
}

}  // namespace symref::netlist
