#include "lang/lexer.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <unordered_map>

#include "vl/check.hpp"

namespace proteus::lang {

namespace {

const std::unordered_map<std::string_view, Tok>& keywords() {
  static const std::unordered_map<std::string_view, Tok> kw{
      {"fun", Tok::kFun},   {"let", Tok::kLet},     {"in", Tok::kIn},
      {"if", Tok::kIf},     {"then", Tok::kThen},   {"else", Tok::kElse},
      {"true", Tok::kTrue}, {"false", Tok::kFalse}, {"and", Tok::kAnd},
      {"or", Tok::kOr},     {"not", Tok::kNot},     {"mod", Tok::kMod},
  };
  return kw;
}

class Scanner {
 public:
  explicit Scanner(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    for (;;) {
      skip_trivia();
      Token t = next();
      const bool done = t.kind == Tok::kEnd;
      out.push_back(std::move(t));
      if (done) return out;
    }
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_trivia() {
    for (;;) {
      while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
        advance();
      }
      if (peek() == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
        continue;
      }
      return;
    }
  }

  [[nodiscard]] SourceLoc here() const { return {line_, col_}; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw SyntaxError("lex error at " + std::to_string(line_) + ":" +
                      std::to_string(col_) + ": " + msg);
  }

  Token make(Tok kind, SourceLoc loc, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.loc = loc;
    return t;
  }

  Token next() {
    SourceLoc loc = here();
    if (at_end()) return make(Tok::kEnd, loc);

    char c = peek();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return identifier(loc);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return number(loc);
    }

    advance();
    switch (c) {
      case '(':
        return make(Tok::kLParen, loc);
      case ')':
        return make(Tok::kRParen, loc);
      case '[':
        return make(Tok::kLBracket, loc);
      case ']':
        return make(Tok::kRBracket, loc);
      case ',':
        return make(Tok::kComma, loc);
      case ':':
        return make(Tok::kColon, loc);
      case ';':
        return make(Tok::kSemicolon, loc);
      case '#':
        return make(Tok::kHash, loc);
      case '|':
        return make(Tok::kBar, loc);
      case '.':
        if (peek() == '.') {
          advance();
          return make(Tok::kDotDot, loc);
        }
        return make(Tok::kDot, loc);
      case '+':
        if (peek() == '+') {
          advance();
          return make(Tok::kPlusPlus, loc);
        }
        return make(Tok::kPlus, loc);
      case '-':
        if (peek() == '>') {
          advance();
          return make(Tok::kArrow, loc);
        }
        return make(Tok::kMinus, loc);
      case '*':
        return make(Tok::kStar, loc);
      case '/':
        return make(Tok::kSlash, loc);
      case '=':
        if (peek() == '=') {
          advance();
          return make(Tok::kEqEq, loc);
        }
        if (peek() == '>') {
          advance();
          return make(Tok::kFatArrow, loc);
        }
        return make(Tok::kAssign, loc);
      case '!':
        if (peek() == '=') {
          advance();
          return make(Tok::kBangEq, loc);
        }
        fail("expected '=' after '!'");
      case '<':
        if (peek() == '-') {
          advance();
          return make(Tok::kLeftArrow, loc);
        }
        if (peek() == '=') {
          advance();
          return make(Tok::kLe, loc);
        }
        return make(Tok::kLt, loc);
      case '>':
        if (peek() == '=') {
          advance();
          return make(Tok::kGe, loc);
        }
        return make(Tok::kGt, loc);
      default:
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Token identifier(SourceLoc loc) {
    std::size_t start = pos_;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                         peek() == '_' || peek() == '^')) {
      advance();
    }
    std::string text(src_.substr(start, pos_ - start));
    auto it = keywords().find(text);
    if (it != keywords().end()) return make(it->second, loc);
    Token t = make(Tok::kIdent, loc, std::move(text));
    return t;
  }

  Token number(SourceLoc loc) {
    std::size_t start = pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      advance();
    }
    // A '.' is part of the number only when followed by a digit ("1..n"
    // must lex as 1 then "..").
    bool is_real = false;
    if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
      is_real = true;
      advance();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        advance();
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      std::size_t mark = pos_;
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (std::isdigit(static_cast<unsigned char>(peek()))) {
        is_real = true;
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
          advance();
        }
      } else {
        pos_ = mark;  // 'e' begins an identifier, not an exponent
      }
    }
    std::string text(src_.substr(start, pos_ - start));
    Token t = make(is_real ? Tok::kRealLit : Tok::kIntLit, loc, text);
    if (is_real) {
      t.real_value = std::stod(text);
    } else {
      vl::Int value = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), value);
      if (ec != std::errc{} || ptr != text.data() + text.size()) {
        // 2^63 is the magnitude of INT64_MIN and nothing else: it lexes to
        // INT64_MIN, which the parser accepts only after a unary minus.
        if (text != "9223372036854775808") {
          fail("integer literal out of range: " + text);
        }
        value = std::numeric_limits<vl::Int>::min();
      }
      t.int_value = value;
    }
    return t;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source) {
  return Scanner(source).run();
}

std::string token_name(Tok t) {
  switch (t) {
    case Tok::kEnd:
      return "end of input";
    case Tok::kIdent:
      return "identifier";
    case Tok::kIntLit:
      return "integer literal";
    case Tok::kRealLit:
      return "real literal";
    case Tok::kFun:
      return "'fun'";
    case Tok::kLet:
      return "'let'";
    case Tok::kIn:
      return "'in'";
    case Tok::kIf:
      return "'if'";
    case Tok::kThen:
      return "'then'";
    case Tok::kElse:
      return "'else'";
    case Tok::kTrue:
      return "'true'";
    case Tok::kFalse:
      return "'false'";
    case Tok::kAnd:
      return "'and'";
    case Tok::kOr:
      return "'or'";
    case Tok::kNot:
      return "'not'";
    case Tok::kMod:
      return "'mod'";
    case Tok::kLParen:
      return "'('";
    case Tok::kRParen:
      return "')'";
    case Tok::kLBracket:
      return "'['";
    case Tok::kRBracket:
      return "']'";
    case Tok::kComma:
      return "','";
    case Tok::kColon:
      return "':'";
    case Tok::kSemicolon:
      return "';'";
    case Tok::kDot:
      return "'.'";
    case Tok::kDotDot:
      return "'..'";
    case Tok::kHash:
      return "'#'";
    case Tok::kBar:
      return "'|'";
    case Tok::kAssign:
      return "'='";
    case Tok::kArrow:
      return "'->'";
    case Tok::kFatArrow:
      return "'=>'";
    case Tok::kLeftArrow:
      return "'<-'";
    case Tok::kPlus:
      return "'+'";
    case Tok::kPlusPlus:
      return "'++'";
    case Tok::kMinus:
      return "'-'";
    case Tok::kStar:
      return "'*'";
    case Tok::kSlash:
      return "'/'";
    case Tok::kEqEq:
      return "'=='";
    case Tok::kBangEq:
      return "'!='";
    case Tok::kLt:
      return "'<'";
    case Tok::kLe:
      return "'<='";
    case Tok::kGt:
      return "'>'";
    case Tok::kGe:
      return "'>='";
  }
  return "<token>";
}

}  // namespace proteus::lang
