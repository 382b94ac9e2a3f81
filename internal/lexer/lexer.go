// Package lexer turns MiniCilk source text into a token stream.
package lexer

import (
	"fmt"
	"strings"

	"mtpa/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniCilk source text.
type Lexer struct {
	file   string
	src    string
	off    int // byte offset of next unread character
	line   int
	col    int
	errors []*Error
}

// New returns a lexer over src. The file name is used in positions.
func New(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errors }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			pos := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(pos, "unterminated block comment")
			}
		case c == '#':
			// Preprocessor-style lines (e.g. #include) are skipped so that
			// corpus programs can keep a C look; MiniCilk has no preprocessor.
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.advance()
	switch {
	case isLetter(c):
		start := l.off - 1
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		kind := token.Lookup(lit)
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: kind, Lit: lit, Pos: pos}
	case isDigit(c):
		start := l.off - 1
		if c == '0' && (l.peek() == 'x' || l.peek() == 'X') {
			l.advance()
			for l.off < len(l.src) && isHexDigit(l.peek()) {
				l.advance()
			}
		} else {
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
			// Accept a fractional part but treat the literal as an integer
			// value; MiniCilk has no float literals distinct from ints at
			// the analysis level.
			if l.peek() == '.' && isDigit(l.peek2()) {
				l.advance()
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
			if l.peek() == 'e' || l.peek() == 'E' {
				save := l.off
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				if isDigit(l.peek()) {
					for l.off < len(l.src) && isDigit(l.peek()) {
						l.advance()
					}
				} else {
					l.off = save
				}
			}
		}
		return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: pos}
	case c == '\'':
		var sb strings.Builder
		for l.off < len(l.src) && l.peek() != '\'' {
			ch := l.advance()
			if ch == '\\' && l.off < len(l.src) {
				sb.WriteByte(unescape(l.advance()))
			} else {
				sb.WriteByte(ch)
			}
		}
		if l.off >= len(l.src) {
			l.errorf(pos, "unterminated character literal")
		} else {
			l.advance() // closing quote
		}
		return token.Token{Kind: token.CHAR, Lit: sb.String(), Pos: pos}
	case c == '"':
		var sb strings.Builder
		for l.off < len(l.src) && l.peek() != '"' {
			ch := l.advance()
			if ch == '\\' && l.off < len(l.src) {
				sb.WriteByte(unescape(l.advance()))
			} else {
				sb.WriteByte(ch)
			}
		}
		if l.off >= len(l.src) {
			l.errorf(pos, "unterminated string literal")
		} else {
			l.advance()
		}
		return token.Token{Kind: token.STRING, Lit: sb.String(), Pos: pos}
	}

	two := func(next byte, two, one token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: two, Pos: pos}
		}
		return token.Token{Kind: one, Pos: pos}
	}

	switch c {
	case '+':
		if l.peek() == '+' {
			l.advance()
			return token.Token{Kind: token.INC, Pos: pos}
		}
		return two('=', token.PLUSASSIGN, token.PLUS)
	case '-':
		switch l.peek() {
		case '-':
			l.advance()
			return token.Token{Kind: token.DEC, Pos: pos}
		case '>':
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return two('=', token.MINUSASSIGN, token.MINUS)
	case '*':
		return two('=', token.STARASSIGN, token.STAR)
	case '/':
		return two('=', token.SLASHASSIGN, token.SLASH)
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: pos}
	case '&':
		return two('&', token.LAND, token.AMP)
	case '|':
		return two('|', token.LOR, token.PIPE)
	case '^':
		return token.Token{Kind: token.CARET, Pos: pos}
	case '<':
		if l.peek() == '<' {
			l.advance()
			return token.Token{Kind: token.SHL, Pos: pos}
		}
		return two('=', token.LE, token.LT)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.SHR, Pos: pos}
		}
		return two('=', token.GE, token.GT)
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '~':
		return token.Token{Kind: token.TILDE, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '?':
		return token.Token{Kind: token.QUESTION, Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: pos}
	}
	l.errorf(pos, "illegal character %q", c)
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return c
}

// All scans the entire input and returns all tokens up to and including EOF.
func (l *Lexer) All() []token.Token {
	// Presized for about one token per four bytes of source, which covers
	// typical code without regrowing.
	toks := make([]token.Token, 0, len(l.src)/4+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
