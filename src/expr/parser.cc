#include "dbwipes/expr/parser.h"

#include <cctype>

#include "dbwipes/common/string_util.h"

namespace dbwipes {

namespace {

enum class TokenType {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // punctuation / operators
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // identifier text (original case) or symbol
  Value number;       // for kNumber: int64 or double
  std::string str;    // for kString
  size_t pos = 0;     // byte offset, for error messages
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      DBW_ASSIGN_OR_RETURN(Token tok, Next());
      const bool end = tok.type == TokenType::kEnd;
      out.push_back(std::move(tok));
      if (end) break;
    }
    return out;
  }

 private:
  Result<Token> Next() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    Token tok;
    tok.pos = pos_;
    if (pos_ >= input_.size()) {
      tok.type = TokenType::kEnd;
      return tok;
    }
    const char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_' || input_[pos_] == '.')) {
        ++pos_;
      }
      tok.type = TokenType::kIdent;
      tok.text = input_.substr(start, pos_ - start);
      return tok;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      size_t start = pos_;
      bool is_double = false;
      while (pos_ < input_.size()) {
        const char d = input_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++pos_;
        } else if (d == '.' || d == 'e' || d == 'E') {
          is_double = true;
          ++pos_;
          if (d != '.' && pos_ < input_.size() &&
              (input_[pos_] == '+' || input_[pos_] == '-')) {
            ++pos_;
          }
        } else {
          break;
        }
      }
      const std::string text = input_.substr(start, pos_ - start);
      tok.type = TokenType::kNumber;
      if (is_double) {
        DBW_ASSIGN_OR_RETURN(double d, ParseDouble(text));
        tok.number = Value(d);
      } else {
        auto as_int = ParseInt64(text);
        if (as_int.ok()) {
          tok.number = Value(*as_int);
        } else {
          DBW_ASSIGN_OR_RETURN(double d, ParseDouble(text));
          tok.number = Value(d);
        }
      }
      return tok;
    }
    if (c == '\'') {
      ++pos_;
      std::string s;
      while (true) {
        if (pos_ >= input_.size()) {
          return Status::ParseError("unterminated string literal at offset " +
                                    std::to_string(tok.pos));
        }
        if (input_[pos_] == '\'') {
          if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
            s += '\'';
            pos_ += 2;
          } else {
            ++pos_;
            break;
          }
        } else {
          s += input_[pos_++];
        }
      }
      tok.type = TokenType::kString;
      tok.str = std::move(s);
      return tok;
    }
    // Multi-char operators first.
    static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
    for (const char* op : kTwoChar) {
      if (input_.compare(pos_, 2, op) == 0) {
        tok.type = TokenType::kSymbol;
        tok.text = op;
        pos_ += 2;
        return tok;
      }
    }
    static const std::string kOneChar = "()+-*/,<>=";
    if (kOneChar.find(c) != std::string::npos) {
      tok.type = TokenType::kSymbol;
      tok.text = std::string(1, c);
      ++pos_;
      return tok;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(pos_));
  }

  const std::string& input_;
  size_t pos_ = 0;
};

/// Recursive-descent parser over the token stream.
///
/// Nesting depth is bounded (kMaxDepth): pathological inputs like a
/// hundred thousand '(' or NOTs fail with kParseError instead of
/// overflowing the C++ call stack. The bound is far above anything a
/// human (or the dashboard) writes.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  static constexpr size_t kMaxDepth = 200;

  Result<AggregateQuery> ParseQuery() {
    AggregateQuery q;
    DBW_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    std::vector<std::string> plain_columns;
    while (true) {
      DBW_RETURN_NOT_OK(ParseSelectItem(&q, &plain_columns));
      if (!AcceptSymbol(",")) break;
    }
    DBW_RETURN_NOT_OK(ExpectKeyword("FROM"));
    DBW_ASSIGN_OR_RETURN(q.table_name, ExpectIdent());
    if (AcceptKeyword("WHERE")) {
      DBW_ASSIGN_OR_RETURN(q.where, ParseOr());
    } else {
      q.where = MakeTrue();
    }
    if (AcceptKeyword("GROUP")) {
      DBW_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        DBW_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        q.group_by.push_back(std::move(col));
        if (!AcceptSymbol(",")) break;
      }
    }
    DBW_RETURN_NOT_OK(ExpectEnd());
    // Plain selected columns must be grouping columns.
    for (const std::string& col : plain_columns) {
      bool found = false;
      for (const std::string& g : q.group_by) {
        if (g == col) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::ParseError("column '" + col +
                                  "' in SELECT is not in GROUP BY");
      }
    }
    if (q.aggregates.empty()) {
      return Status::ParseError("query must contain at least one aggregate");
    }
    return q;
  }

  Result<BoolExprPtr> ParseFilterOnly() {
    DBW_ASSIGN_OR_RETURN(BoolExprPtr e, ParseOr());
    DBW_RETURN_NOT_OK(ExpectEnd());
    return e;
  }

 private:
  /// Counts live recursion frames for the duration of a scope. Every
  /// mutually recursive production (ParseNot / ParseUnary /
  /// ParsePrimary — the three entry points of the grammar's cycles)
  /// opens one and bails out past kMaxDepth.
  class DepthGuard {
   public:
    explicit DepthGuard(size_t* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    bool exceeded() const { return *depth_ > kMaxDepth; }

   private:
    size_t* depth_;
  };

  Status DepthError() const {
    return Status::ParseError(
        "expression nested deeper than " + std::to_string(kMaxDepth) +
        " levels at offset " + std::to_string(Peek().pos));
  }

  const Token& Peek() const { return tokens_[idx_]; }
  const Token& Advance() { return tokens_[idx_++]; }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kIdent &&
        EqualsIgnoreCase(Peek().text, kw)) {
      ++idx_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError("expected " + kw + " at offset " +
                                std::to_string(Peek().pos));
    }
    return Status::OK();
  }

  bool AcceptSymbol(const std::string& sym) {
    if (Peek().type == TokenType::kSymbol && Peek().text == sym) {
      ++idx_;
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError("expected '" + sym + "' at offset " +
                                std::to_string(Peek().pos));
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Peek().type != TokenType::kIdent) {
      return Status::ParseError("expected identifier at offset " +
                                std::to_string(Peek().pos));
    }
    return Advance().text;
  }

  Status ExpectEnd() {
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("unexpected trailing input at offset " +
                                std::to_string(Peek().pos) + ": '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }

  bool PeekIsAggCall() const {
    if (Peek().type != TokenType::kIdent) return false;
    if (!AggKindFromString(Peek().text).ok()) return false;
    const Token& next = tokens_[idx_ + 1];
    return next.type == TokenType::kSymbol && next.text == "(";
  }

  Status ParseSelectItem(AggregateQuery* q,
                         std::vector<std::string>* plain_columns) {
    if (PeekIsAggCall()) {
      AggSpec spec;
      DBW_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      DBW_ASSIGN_OR_RETURN(spec.kind, AggKindFromString(name));
      DBW_RETURN_NOT_OK(ExpectSymbol("("));
      if (AcceptSymbol("*")) {
        if (spec.kind != AggKind::kCount) {
          return Status::ParseError("only count(*) may take '*'");
        }
        spec.argument = nullptr;
      } else {
        DBW_ASSIGN_OR_RETURN(spec.argument, ParseScalar());
      }
      DBW_RETURN_NOT_OK(ExpectSymbol(")"));
      if (AcceptKeyword("AS")) {
        DBW_ASSIGN_OR_RETURN(spec.output_name, ExpectIdent());
      } else {
        spec.output_name =
            std::string(AggKindToString(spec.kind)) + "(" +
            (spec.argument ? spec.argument->ToString() : "*") + ")";
      }
      q->aggregates.push_back(std::move(spec));
      return Status::OK();
    }
    DBW_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
    if (AcceptKeyword("AS")) {
      // Aliasing a grouping column is accepted and ignored; the output
      // uses the underlying column name.
      DBW_RETURN_NOT_OK(ExpectIdent().status());
    }
    plain_columns->push_back(col);
    return Status::OK();
  }

  // scalar := mul (('+'|'-') mul)*
  Result<ScalarExprPtr> ParseScalar() {
    DBW_ASSIGN_OR_RETURN(ScalarExprPtr left, ParseMul());
    while (true) {
      if (AcceptSymbol("+")) {
        DBW_ASSIGN_OR_RETURN(ScalarExprPtr right, ParseMul());
        left = Add(std::move(left), std::move(right));
      } else if (AcceptSymbol("-")) {
        DBW_ASSIGN_OR_RETURN(ScalarExprPtr right, ParseMul());
        left = Sub(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ScalarExprPtr> ParseMul() {
    DBW_ASSIGN_OR_RETURN(ScalarExprPtr left, ParseUnary());
    while (true) {
      if (AcceptSymbol("*")) {
        DBW_ASSIGN_OR_RETURN(ScalarExprPtr right, ParseUnary());
        left = Mul(std::move(left), std::move(right));
      } else if (AcceptSymbol("/")) {
        DBW_ASSIGN_OR_RETURN(ScalarExprPtr right, ParseUnary());
        left = Div(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ScalarExprPtr> ParseUnary() {
    const DepthGuard guard(&depth_);
    if (guard.exceeded()) return DepthError();
    if (AcceptSymbol("-")) {
      DBW_ASSIGN_OR_RETURN(ScalarExprPtr inner, ParseUnary());
      return Sub(Lit(Value(static_cast<int64_t>(0))), std::move(inner));
    }
    return ParsePrimary();
  }

  Result<ScalarExprPtr> ParsePrimary() {
    const DepthGuard guard(&depth_);
    if (guard.exceeded()) return DepthError();
    if (Peek().type == TokenType::kNumber) {
      return Lit(Advance().number);
    }
    if (Peek().type == TokenType::kString) {
      return Lit(Value(Advance().str));
    }
    if (AcceptSymbol("(")) {
      DBW_ASSIGN_OR_RETURN(ScalarExprPtr e, ParseScalar());
      DBW_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    if (Peek().type == TokenType::kIdent) {
      return Col(Advance().text);
    }
    return Status::ParseError("expected scalar expression at offset " +
                              std::to_string(Peek().pos));
  }

  // Boolean grammar.
  Result<BoolExprPtr> ParseOr() {
    DBW_ASSIGN_OR_RETURN(BoolExprPtr left, ParseAnd());
    while (AcceptKeyword("OR")) {
      DBW_ASSIGN_OR_RETURN(BoolExprPtr right, ParseAnd());
      left = MakeOr(std::move(left), std::move(right));
    }
    return left;
  }

  Result<BoolExprPtr> ParseAnd() {
    DBW_ASSIGN_OR_RETURN(BoolExprPtr left, ParseNot());
    while (AcceptKeyword("AND")) {
      DBW_ASSIGN_OR_RETURN(BoolExprPtr right, ParseNot());
      left = MakeAnd(std::move(left), std::move(right));
    }
    return left;
  }

  Result<BoolExprPtr> ParseNot() {
    const DepthGuard guard(&depth_);
    if (guard.exceeded()) return DepthError();
    if (AcceptKeyword("NOT")) {
      DBW_ASSIGN_OR_RETURN(BoolExprPtr inner, ParseNot());
      return MakeNot(std::move(inner));
    }
    if (AcceptSymbol("(")) {
      DBW_ASSIGN_OR_RETURN(BoolExprPtr inner, ParseOr());
      DBW_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (AcceptKeyword("TRUE")) return MakeTrue();
    return ParseComparison();
  }

  Result<Value> ParseLiteral() {
    if (AcceptSymbol("-")) {
      if (Peek().type != TokenType::kNumber) {
        return Status::ParseError("expected number after '-' at offset " +
                                  std::to_string(Peek().pos));
      }
      const Value v = Advance().number;
      if (v.is_int64()) return Value(-v.int64());
      return Value(-v.dbl());
    }
    if (Peek().type == TokenType::kNumber) return Advance().number;
    if (Peek().type == TokenType::kString) return Value(Advance().str);
    // Value::ToString renders a NULL literal as NULL; accepting it here
    // makes every rendered clause parse back.
    if (AcceptKeyword("NULL")) return Value::Null();
    return Status::ParseError("expected literal at offset " +
                              std::to_string(Peek().pos));
  }

  Result<BoolExprPtr> ParseComparison() {
    DBW_ASSIGN_OR_RETURN(std::string attr, ExpectIdent());
    if (AcceptKeyword("IN")) {
      DBW_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      while (true) {
        DBW_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        values.push_back(std::move(v));
        if (!AcceptSymbol(",")) break;
      }
      DBW_RETURN_NOT_OK(ExpectSymbol(")"));
      return MakeComparison(Clause::In(attr, std::move(values)));
    }
    if (AcceptKeyword("CONTAINS") || AcceptKeyword("LIKE")) {
      if (Peek().type != TokenType::kString) {
        return Status::ParseError("CONTAINS expects a string literal");
      }
      std::string needle = Advance().str;
      // Tolerate SQL LIKE wildcards at the edges: '%foo%' -> contains.
      while (!needle.empty() && needle.front() == '%') needle.erase(0, 1);
      while (!needle.empty() && needle.back() == '%') needle.pop_back();
      return MakeComparison(
          Clause::Make(attr, CompareOp::kContains, Value(std::move(needle))));
    }
    if (AcceptKeyword("BETWEEN")) {
      DBW_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      DBW_RETURN_NOT_OK(ExpectKeyword("AND"));
      DBW_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      return MakeAnd(
          MakeComparison(Clause::Make(attr, CompareOp::kGe, std::move(lo))),
          MakeComparison(Clause::Make(attr, CompareOp::kLe, std::move(hi))));
    }
    if (Peek().type != TokenType::kSymbol) {
      return Status::ParseError("expected comparison operator at offset " +
                                std::to_string(Peek().pos));
    }
    const std::string op_text = Advance().text;
    CompareOp op;
    if (op_text == "=") {
      op = CompareOp::kEq;
    } else if (op_text == "!=" || op_text == "<>") {
      op = CompareOp::kNe;
    } else if (op_text == "<") {
      op = CompareOp::kLt;
    } else if (op_text == "<=") {
      op = CompareOp::kLe;
    } else if (op_text == ">") {
      op = CompareOp::kGt;
    } else if (op_text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Status::ParseError("unknown comparison operator '" + op_text +
                                "'");
    }
    DBW_ASSIGN_OR_RETURN(Value lit, ParseLiteral());
    return MakeComparison(Clause::Make(attr, op, std::move(lit)));
  }

  std::vector<Token> tokens_;
  size_t idx_ = 0;
  size_t depth_ = 0;
};

// Flattens an AND-only BoolExpr into clauses; error on OR/NOT.
// Iterative with an explicit stack: an AND chain is as deep as it is
// long, so recursing here would overflow on predicates the parser
// itself accepts happily (AND chains don't nest, see Parser::kMaxDepth).
Status FlattenConjunction(const BoolExpr& root, std::vector<Clause>* out) {
  std::vector<const BoolExpr*> pending{&root};
  while (!pending.empty()) {
    const BoolExpr& e = *pending.back();
    pending.pop_back();
    switch (e.kind()) {
      case BoolExpr::Kind::kTrue:
        continue;
      case BoolExpr::Kind::kComparison:
        out->push_back(static_cast<const ComparisonExpr&>(e).clause());
        continue;
      case BoolExpr::Kind::kAnd: {
        const auto& a = static_cast<const AndExpr&>(e);
        // Right below left so the left subtree's clauses pop first,
        // preserving the written clause order.
        pending.push_back(a.right().get());
        pending.push_back(a.left().get());
        continue;
      }
      case BoolExpr::Kind::kOr:
      case BoolExpr::Kind::kNot:
        return Status::InvalidArgument(
            "predicate must be a conjunction of comparisons");
    }
    return Status::InvalidArgument("unknown expression kind");
  }
  return Status::OK();
}

}  // namespace

Result<AggregateQuery> ParseQuery(const std::string& sql) {
  Lexer lexer(sql);
  DBW_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<BoolExprPtr> ParseFilter(const std::string& text) {
  Lexer lexer(text);
  DBW_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseFilterOnly();
}

Result<Predicate> ParsePredicate(const std::string& text) {
  DBW_ASSIGN_OR_RETURN(BoolExprPtr expr, ParseFilter(text));
  std::vector<Clause> clauses;
  DBW_RETURN_NOT_OK(FlattenConjunction(*expr, &clauses));
  return Predicate(std::move(clauses));
}

}  // namespace dbwipes
