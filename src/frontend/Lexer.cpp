//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/Assert.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

using namespace jumpstart;
using namespace jumpstart::frontend;

const char *jumpstart::frontend::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Error:
    return "error";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::DblLit:
    return "float literal";
  case TokKind::StrLit:
    return "string literal";
  case TokKind::Ident:
    return "identifier";
  case TokKind::Variable:
    return "variable";
  case TokKind::KwFunction:
    return "'function'";
  case TokKind::KwClass:
    return "'class'";
  case TokKind::KwExtends:
    return "'extends'";
  case TokKind::KwProp:
    return "'prop'";
  case TokKind::KwMethod:
    return "'method'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::KwTrue:
    return "'true'";
  case TokKind::KwFalse:
    return "'false'";
  case TokKind::KwNull:
    return "'null'";
  case TokKind::KwNew:
    return "'new'";
  case TokKind::KwThis:
    return "'$this'";
  case TokKind::KwVec:
    return "'vec'";
  case TokKind::KwDict:
    return "'dict'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Arrow:
    return "'->'";
  case TokKind::FatArrow:
    return "'=>'";
  case TokKind::Assign:
    return "'='";
  case TokKind::PlusAssign:
    return "'+='";
  case TokKind::MinusAssign:
    return "'-='";
  case TokKind::DotAssign:
    return "'.='";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Dot:
    return "'.'";
  case TokKind::Not:
    return "'!'";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::AndAnd:
    return "'&&'";
  case TokKind::OrOr:
    return "'||'";
  }
  unreachable("unhandled TokKind");
}

char Lexer::peek(size_t Ahead) const {
  if (Pos + Ahead >= Src.size())
    return '\0';
  return Src[Pos + Ahead];
}

char Lexer::advance() {
  char C = peek();
  if (C != '\0')
    ++Pos;
  if (C == '\n')
    ++Line;
  return C;
}

bool Lexer::match(char C) {
  if (peek() != C)
    return false;
  advance();
  return true;
}

Token Lexer::makeToken(TokKind K) {
  Token T;
  T.Kind = K;
  T.Line = Line;
  return T;
}

Token Lexer::errorToken(const char *Msg) {
  Token T = makeToken(TokKind::Error);
  T.Text = Msg;
  return T;
}

void Lexer::skipTrivia() {
  for (;;) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (peek() != '\n' && peek() != '\0')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/') && peek() != '\0')
        advance();
      if (peek() != '\0') {
        advance();
        advance();
      }
      continue;
    }
    return;
  }
}

Token Lexer::lexNumber() {
  size_t Start = Pos;
  while (std::isdigit(static_cast<unsigned char>(peek())))
    advance();
  bool IsDouble = false;
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    IsDouble = true;
    advance();
    while (std::isdigit(static_cast<unsigned char>(peek())))
      advance();
  }
  std::string Text(Src.substr(Start, Pos - Start));
  Token T = makeToken(IsDouble ? TokKind::DblLit : TokKind::IntLit);
  T.Text = Text;
  if (IsDouble) {
    errno = 0;
    T.DblValue = std::strtod(Text.c_str(), nullptr);
    // ERANGE also flags an underflow to a tiny or zero value, which
    // stands; only an overflow to +-HUGE_VAL is an error.
    if (errno == ERANGE && std::fabs(T.DblValue) == HUGE_VAL)
      return errorToken("float literal out of range");
  } else {
    errno = 0;
    T.IntValue = std::strtoll(Text.c_str(), nullptr, 10);
    if (errno == ERANGE)
      return errorToken("integer literal out of range");
  }
  return T;
}

Token Lexer::lexString() {
  // Opening quote already consumed.
  std::string Value;
  for (;;) {
    char C = advance();
    if (C == '\0')
      return errorToken("unterminated string literal");
    if (C == '"')
      break;
    if (C == '\\') {
      char E = advance();
      switch (E) {
      case 'n':
        Value += '\n';
        break;
      case 't':
        Value += '\t';
        break;
      case '\\':
        Value += '\\';
        break;
      case '"':
        Value += '"';
        break;
      default:
        return errorToken("invalid escape sequence");
      }
      continue;
    }
    Value += C;
  }
  Token T = makeToken(TokKind::StrLit);
  T.Text = std::move(Value);
  return T;
}

Token Lexer::lexIdent() {
  size_t Start = Pos;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    advance();
  std::string Text(Src.substr(Start, Pos - Start));

  static const std::unordered_map<std::string, TokKind> Keywords = {
      {"function", TokKind::KwFunction}, {"class", TokKind::KwClass},
      {"extends", TokKind::KwExtends},   {"prop", TokKind::KwProp},
      {"method", TokKind::KwMethod},     {"if", TokKind::KwIf},
      {"else", TokKind::KwElse},         {"while", TokKind::KwWhile},
      {"return", TokKind::KwReturn},     {"break", TokKind::KwBreak},
      {"continue", TokKind::KwContinue}, {"true", TokKind::KwTrue},
      {"false", TokKind::KwFalse},       {"null", TokKind::KwNull},
      {"new", TokKind::KwNew},           {"vec", TokKind::KwVec},
      {"dict", TokKind::KwDict},
  };
  auto It = Keywords.find(Text);
  Token T = makeToken(It == Keywords.end() ? TokKind::Ident : It->second);
  T.Text = std::move(Text);
  return T;
}

Token Lexer::lexVariable() {
  // '$' already consumed.
  if (!std::isalpha(static_cast<unsigned char>(peek())) && peek() != '_')
    return errorToken("expected variable name after '$'");
  size_t Start = Pos;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    advance();
  std::string Name(Src.substr(Start, Pos - Start));
  if (Name == "this") {
    Token T = makeToken(TokKind::KwThis);
    T.Text = std::move(Name);
    return T;
  }
  Token T = makeToken(TokKind::Variable);
  T.Text = std::move(Name);
  return T;
}

Token Lexer::next() {
  skipTrivia();
  char C = peek();
  if (C == '\0')
    return makeToken(TokKind::Eof);

  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdent();

  advance();
  switch (C) {
  case '$':
    return lexVariable();
  case '"':
    return lexString();
  case '(':
    return makeToken(TokKind::LParen);
  case ')':
    return makeToken(TokKind::RParen);
  case '{':
    return makeToken(TokKind::LBrace);
  case '}':
    return makeToken(TokKind::RBrace);
  case '[':
    return makeToken(TokKind::LBracket);
  case ']':
    return makeToken(TokKind::RBracket);
  case ',':
    return makeToken(TokKind::Comma);
  case ';':
    return makeToken(TokKind::Semi);
  case '+':
    return makeToken(match('=') ? TokKind::PlusAssign : TokKind::Plus);
  case '-':
    if (match('>'))
      return makeToken(TokKind::Arrow);
    return makeToken(match('=') ? TokKind::MinusAssign : TokKind::Minus);
  case '*':
    return makeToken(TokKind::Star);
  case '/':
    return makeToken(TokKind::Slash);
  case '%':
    return makeToken(TokKind::Percent);
  case '.':
    return makeToken(match('=') ? TokKind::DotAssign : TokKind::Dot);
  case '!':
    return makeToken(match('=') ? TokKind::NotEq : TokKind::Not);
  case '=':
    if (match('='))
      return makeToken(TokKind::EqEq);
    if (match('>'))
      return makeToken(TokKind::FatArrow);
    return makeToken(TokKind::Assign);
  case '<':
    return makeToken(match('=') ? TokKind::Le : TokKind::Lt);
  case '>':
    return makeToken(match('=') ? TokKind::Ge : TokKind::Gt);
  case '&':
    if (match('&'))
      return makeToken(TokKind::AndAnd);
    return errorToken("expected '&&'");
  case '|':
    if (match('|'))
      return makeToken(TokKind::OrOr);
    return errorToken("expected '||'");
  default:
    return errorToken("unexpected character");
  }
}
