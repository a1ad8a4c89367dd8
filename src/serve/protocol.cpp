#include "serve/protocol.hpp"

#include <cctype>
#include <sstream>

#include "obs/export.hpp"

namespace ppf::serve {

namespace {

// Hand-rolled scanner for the protocol's request grammar: one flat JSON
// object, string keys, string/uint/bool values. Positioned error
// messages ("column 17: expected ':'") make client bugs diagnosable
// from the error response alone.
class Scanner {
 public:
  explicit Scanner(const std::string& s) : s_(s) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= s_.size();
  }

  bool accept(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Parse a double-quoted JSON string with the escape set the sinks
  /// emit (\" \\ \n \r \t \uXXXX).
  bool string(std::string& out) {
    if (!accept('"')) return err("expected '\"'");
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return err("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return err("short \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return err("bad \\u escape");
            }
          }
          // The protocol only round-trips the control characters the
          // writers emit; anything above Latin-1 is out of grammar.
          if (v > 0xff) return err("\\u escape above 0xff unsupported");
          out += static_cast<char>(v);
          break;
        }
        default:
          return err("unknown escape");
      }
    }
    return err("unterminated string");
  }

  /// Scalar value as a raw string: quoted string (unescaped), unsigned
  /// integer, or true/false.
  bool value(std::string& out) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '"') return string(out);
    if (match_word("true")) {
      out = "1";
      return true;
    }
    if (match_word("false")) {
      out = "0";
      return true;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return err("expected string, integer, or boolean");
    out = s_.substr(start, pos_ - start);
    return true;
  }

  bool err(const std::string& what) {
    std::ostringstream os;
    os << "column " << (pos_ + 1) << ": " << what;
    error_ = os.str();
    return false;
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool match_word(const char* w) {
    std::size_t n = 0;
    while (w[n] != '\0') ++n;
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult parse_request(const std::string& line) {
  ParseResult out;
  Scanner sc(line);
  const auto bad = [&](const std::string& what) {
    out.ok = false;
    out.error = what;
    return out;
  };
  if (!sc.accept('{')) return bad("expected '{'");
  if (!sc.accept('}')) {
    for (;;) {
      std::string key;
      if (!sc.string(key)) return bad(sc.error());
      if (!sc.accept(':')) return bad("expected ':'");
      std::string value;
      if (!sc.value(value)) return bad(sc.error());
      if (out.req.fields.count(key) != 0) {
        return bad("duplicate key \"" + key + "\"");
      }
      out.req.fields.emplace(std::move(key), std::move(value));
      if (sc.accept('}')) break;
      if (!sc.accept(',')) return bad("expected ',' or '}'");
    }
  }
  if (!sc.eof()) return bad("trailing bytes after object");

  const auto op = out.req.fields.find("op");
  if (op == out.req.fields.end()) return bad("missing \"op\" key");
  out.req.verb = op->second;
  out.req.fields.erase(op);

  const auto id = out.req.fields.find("id");
  if (id != out.req.fields.end()) {
    if (id->second.empty()) return bad("\"id\" must be an unsigned integer");
    for (char c : id->second) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return bad("\"id\" must be an unsigned integer");
      }
    }
    try {
      out.req.id = std::stoull(id->second);
    } catch (const std::exception&) {
      return bad("\"id\" out of range");
    }
    out.req.fields.erase(id);
  }
  out.ok = true;
  return out;
}

std::string error_response(std::uint64_t id, const std::string& code,
                           const std::string& message) {
  std::ostringstream os;
  os << "{\"op\":\"error\",\"id\":" << id
     << ",\"code\":" << obs::json_string(code)
     << ",\"message\":" << obs::json_string(message) << "}";
  return os.str();
}

std::string pong_response(std::uint64_t id) {
  std::ostringstream os;
  os << "{\"op\":\"pong\",\"id\":" << id << "}";
  return os.str();
}

std::string result_response(std::uint64_t id, bool cached,
                            const std::string& body) {
  std::ostringstream os;
  os << "{\"op\":\"result\",\"id\":" << id << ",\"cached\":" << (cached ? 1 : 0)
     << "," << body;
  return os.str();
}

const std::vector<VerbDoc>& verb_docs() {
  static const std::vector<VerbDoc> docs = {
      {"run",
       "execute one simulation; \"config\" carries the same key=value "
       "string ppf_batch accepts"},
      {"ping", "liveness probe; answered with {\"op\":\"pong\"}"},
      {"stats",
       "serving metrics snapshot (admission, memo, latency histograms) "
       "from the obs registry"},
      {"metrics",
       "Prometheus text-format exposition of the serving registry and "
       "profiler histograms, carried in the \"body\" field"},
      {"dump",
       "flight-recorder dump: recent request spans and notes as "
       "ppf.flight.v1 JSONL in the \"body\" field"},
      {"shutdown",
       "request graceful shutdown: drain in-flight work, then close"},
  };
  return docs;
}

const std::vector<ErrorCodeDoc>& error_code_docs() {
  static const std::vector<ErrorCodeDoc> docs = {
      {"bad_request", "request line is not a valid protocol object"},
      {"unknown_verb", "\"op\" names no protocol verb"},
      {"bad_config",
       "\"config\" has an unknown key, unparsable value, or unknown "
       "benchmark"},
      {"queue_full",
       "admission queue at capacity; resubmit after backoff"},
      {"shutting_down", "daemon is draining; no new work accepted"},
      {"internal", "simulation failed; message carries the job repro"},
      {"flight_disabled",
       "flight recorder is off (flight_recorder=0); no dump available"},
  };
  return docs;
}

}  // namespace ppf::serve
