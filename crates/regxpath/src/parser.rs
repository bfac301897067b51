//! Surface syntax for Regular XPath(W).
//!
//! Extends the Core XPath surface syntax with:
//!
//! * postfix `*` (Kleene star of arbitrary paths) and `+` (sugar for
//!   `A/A*`);
//! * `?(φ)` — the diagonal node test;
//! * `W(φ)` — the *within* (subtree relativisation) operator;
//! * `.` denotes `ε`.
//!
//! ```text
//! path  ::=  seq ( '|' seq )*
//! seq   ::=  post ( '/' post )*
//! post  ::=  atom ( '[' node ']' | '*' | '+' )*
//! atom  ::=  AXIS | '.' | '?' '(' node ')' | '(' path ')'
//! node  ::=  conj ( 'or' conj )* ; conj ::= unary ( 'and' unary )*
//! unary ::=  '!' unary | 'not' '(' node ')' | 'W' '(' node ')'
//!         |  '<' path '>' | 'true' | 'false' | 'root' | 'leaf'
//!         |  LABEL | '(' node ')'
//! ```

use crate::ast::{Axis, RNode, RPath};
use std::fmt;
use twx_xtree::{Alphabet, Catalog, Label};

/// A syntax error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Byte offset of the offending token.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SyntaxError {}

/// An error from the resolve-only entry points
/// ([`parse_rpath_resolved`] / [`parse_rnode_resolved`]), which look
/// labels up in a read-only label space instead of interning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The input did not parse.
    Syntax(SyntaxError),
    /// The input parsed but names a label the label space does not
    /// contain — with `&mut` interning this would have silently created
    /// a query-only label.
    UnknownLabel {
        /// The label name that failed to resolve.
        label: String,
        /// Byte offset of the label in the input.
        offset: usize,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Syntax(e) => e.fmt(f),
            ResolveError::UnknownLabel { label, offset } => {
                write!(f, "unknown label '{label}' at {offset}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// How the parser maps label names to [`Label`]s: by interning into a
/// mutable alphabet (the historical behaviour) or by read-only lookup.
enum Labels<'a> {
    Intern(&'a mut Alphabet),
    Resolve(&'a Alphabet),
}

impl Labels<'_> {
    fn get(&mut self, name: &str) -> Option<Label> {
        match self {
            Labels::Intern(ab) => Some(ab.intern(name)),
            Labels::Resolve(ab) => ab.lookup(name),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Slash,
    Pipe,
    LBracket,
    RBracket,
    LParen,
    RParen,
    LAngle,
    RAngle,
    Bang,
    Dot,
    Plus,
    Star,
    Question,
    Eof,
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn next_tok(&mut self) -> Result<(usize, Tok), SyntaxError> {
        while self
            .input
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&c) = self.input.get(self.pos) else {
            return Ok((start, Tok::Eof));
        };
        self.pos += 1;
        let tok = match c {
            b'/' => Tok::Slash,
            b'|' => Tok::Pipe,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'<' => Tok::LAngle,
            b'>' => Tok::RAngle,
            b'!' => Tok::Bang,
            b'.' => Tok::Dot,
            b'+' => Tok::Plus,
            b'*' => Tok::Star,
            b'?' => Tok::Question,
            c if c.is_ascii_alphanumeric() || c == b'_' || c == b'@' => {
                while self.input.get(self.pos).is_some_and(|&c| {
                    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'@' | b'=')
                }) {
                    self.pos += 1;
                }
                Tok::Ident(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
            }
            c => {
                return Err(SyntaxError {
                    offset: start,
                    message: format!("unexpected character '{}'", c as char),
                })
            }
        };
        Ok((start, tok))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    tok_pos: usize,
    labels: Labels<'a>,
    /// Set when a label fails to resolve in [`Labels::Resolve`] mode, so
    /// the resolve entry points can surface a typed error.
    unknown: Option<String>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, labels: Labels<'a>) -> Result<Self, SyntaxError> {
        let mut lexer = Lexer {
            input: input.as_bytes(),
            pos: 0,
        };
        let (tok_pos, tok) = lexer.next_tok()?;
        Ok(Parser {
            lexer,
            tok,
            tok_pos,
            labels,
            unknown: None,
        })
    }

    /// Requires the whole input to have been consumed.
    fn eof(&mut self) -> Result<(), SyntaxError> {
        if self.tok == Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.tok)))
        }
    }

    /// Converts a syntax error into the resolve-mode error, promoting a
    /// pending unknown-label record to the typed variant.
    fn resolve_err(&mut self, e: SyntaxError) -> ResolveError {
        match self.unknown.take() {
            Some(label) => ResolveError::UnknownLabel {
                label,
                offset: e.offset,
            },
            None => ResolveError::Syntax(e),
        }
    }

    fn bump(&mut self) -> Result<(), SyntaxError> {
        let (p, t) = self.lexer.next_tok()?;
        self.tok = t;
        self.tok_pos = p;
        Ok(())
    }

    fn expect(&mut self, t: Tok) -> Result<(), SyntaxError> {
        if self.tok == t {
            self.bump()
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.tok)))
        }
    }

    fn err(&self, message: String) -> SyntaxError {
        SyntaxError {
            offset: self.tok_pos,
            message,
        }
    }

    fn path(&mut self) -> Result<RPath, SyntaxError> {
        let mut e = self.seq()?;
        while self.tok == Tok::Pipe {
            self.bump()?;
            e = e.union(self.seq()?);
        }
        Ok(e)
    }

    fn seq(&mut self) -> Result<RPath, SyntaxError> {
        let mut e = self.postfix()?;
        while self.tok == Tok::Slash {
            self.bump()?;
            e = e.seq(self.postfix()?);
        }
        Ok(e)
    }

    fn postfix(&mut self) -> Result<RPath, SyntaxError> {
        let mut e = self.atom()?;
        loop {
            match self.tok {
                Tok::LBracket => {
                    self.bump()?;
                    let phi = self.node()?;
                    self.expect(Tok::RBracket)?;
                    e = e.filter(phi);
                }
                Tok::Star => {
                    self.bump()?;
                    e = e.star();
                }
                Tok::Plus => {
                    self.bump()?;
                    e = e.plus();
                }
                _ => return Ok(e),
            }
        }
    }

    fn atom(&mut self) -> Result<RPath, SyntaxError> {
        match self.tok.clone() {
            Tok::Dot => {
                self.bump()?;
                Ok(RPath::Eps)
            }
            Tok::Question => {
                self.bump()?;
                self.expect(Tok::LParen)?;
                let phi = self.node()?;
                self.expect(Tok::RParen)?;
                Ok(RPath::test(phi))
            }
            Tok::LParen => {
                self.bump()?;
                let e = self.path()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let axis = match name.as_str() {
                    "down" | "child" => Axis::Down,
                    "up" | "parent" => Axis::Up,
                    "left" | "preceding-sibling" => Axis::Left,
                    "right" | "following-sibling" => Axis::Right,
                    other => {
                        return Err(self.err(format!(
                            "expected an axis (down/up/left/right), found '{other}'"
                        )))
                    }
                };
                self.bump()?;
                Ok(RPath::Axis(axis))
            }
            t => Err(self.err(format!("expected a path expression, found {t:?}"))),
        }
    }

    fn node(&mut self) -> Result<RNode, SyntaxError> {
        let mut e = self.conj()?;
        while self.tok == Tok::Ident("or".into()) {
            self.bump()?;
            e = e.or(self.conj()?);
        }
        Ok(e)
    }

    fn conj(&mut self) -> Result<RNode, SyntaxError> {
        let mut e = self.unary()?;
        while self.tok == Tok::Ident("and".into()) {
            self.bump()?;
            e = e.and(self.unary()?);
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<RNode, SyntaxError> {
        match self.tok.clone() {
            Tok::Bang => {
                self.bump()?;
                Ok(self.unary()?.not())
            }
            Tok::LAngle => {
                self.bump()?;
                let p = self.path()?;
                self.expect(Tok::RAngle)?;
                Ok(RNode::some(p))
            }
            Tok::LParen => {
                self.bump()?;
                let e = self.node()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => {
                    self.bump()?;
                    Ok(RNode::True)
                }
                "false" => {
                    self.bump()?;
                    Ok(RNode::fals())
                }
                "root" => {
                    self.bump()?;
                    Ok(RNode::root())
                }
                "leaf" => {
                    self.bump()?;
                    Ok(RNode::leaf())
                }
                "not" => {
                    self.bump()?;
                    self.expect(Tok::LParen)?;
                    let e = self.node()?;
                    self.expect(Tok::RParen)?;
                    Ok(e.not())
                }
                "W" | "within" => {
                    self.bump()?;
                    self.expect(Tok::LParen)?;
                    let e = self.node()?;
                    self.expect(Tok::RParen)?;
                    Ok(e.within())
                }
                "and" | "or" => Err(self.err(format!("'{name}' is a reserved word"))),
                _ => match self.labels.get(&name) {
                    Some(l) => {
                        self.bump()?;
                        Ok(RNode::Label(l))
                    }
                    None => {
                        let e = self.err(format!("unknown label '{name}'"));
                        self.unknown = Some(name);
                        Err(e)
                    }
                },
            },
            t => Err(self.err(format!("expected a node expression, found {t:?}"))),
        }
    }
}

/// Parses a Regular XPath(W) path expression, interning labels.
pub fn parse_rpath(input: &str, alphabet: &mut Alphabet) -> Result<RPath, SyntaxError> {
    let mut p = Parser::new(input, Labels::Intern(alphabet))?;
    let e = p.path()?;
    p.eof()?;
    Ok(e)
}

/// Parses a Regular XPath(W) node expression, interning labels.
pub fn parse_rnode(input: &str, alphabet: &mut Alphabet) -> Result<RNode, SyntaxError> {
    let mut p = Parser::new(input, Labels::Intern(alphabet))?;
    let e = p.node()?;
    p.eof()?;
    Ok(e)
}

/// Parses a path expression against a **read-only** label space: labels
/// are resolved by lookup, and a name the space does not contain is a
/// typed [`ResolveError::UnknownLabel`] instead of a silent intern.
pub fn parse_rpath_resolved(input: &str, alphabet: &Alphabet) -> Result<RPath, ResolveError> {
    let mut p = Parser::new(input, Labels::Resolve(alphabet)).map_err(ResolveError::Syntax)?;
    match p.path().and_then(|e| p.eof().map(|()| e)) {
        Ok(e) => Ok(e),
        Err(se) => Err(p.resolve_err(se)),
    }
}

/// Parses a node expression against a read-only label space (see
/// [`parse_rpath_resolved`]).
pub fn parse_rnode_resolved(input: &str, alphabet: &Alphabet) -> Result<RNode, ResolveError> {
    let mut p = Parser::new(input, Labels::Resolve(alphabet)).map_err(ResolveError::Syntax)?;
    match p.node().and_then(|e| p.eof().map(|()| e)) {
        Ok(e) => Ok(e),
        Err(se) => Err(p.resolve_err(se)),
    }
}

/// Parses a path expression, interning labels into a shared [`Catalog`]
/// (append-only, thread-safe): the entry point for compiling queries
/// that will be served across every document sharing the catalog.
pub fn parse_rpath_catalog(input: &str, catalog: &Catalog) -> Result<RPath, SyntaxError> {
    catalog.with_write(|ab| parse_rpath(input, ab))
}

/// Parses a node expression, interning labels into a shared [`Catalog`].
pub fn parse_rnode_catalog(input: &str, catalog: &Catalog) -> Result<RNode, SyntaxError> {
    catalog.with_write(|ab| parse_rnode(input, ab))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stars_and_plus() {
        let mut ab = Alphabet::new();
        let p = parse_rpath("down*", &mut ab).unwrap();
        assert_eq!(p, RPath::Axis(Axis::Down).star());
        let p = parse_rpath("down+", &mut ab).unwrap();
        assert_eq!(p, RPath::Axis(Axis::Down).plus());
        let p = parse_rpath("(down/up)*", &mut ab).unwrap();
        assert_eq!(p, RPath::Axis(Axis::Down).seq(RPath::Axis(Axis::Up)).star());
    }

    #[test]
    fn tests_and_within() {
        let mut ab = Alphabet::new();
        let p = parse_rpath("?(a)/down", &mut ab).unwrap();
        let a = ab.lookup("a").unwrap();
        assert_eq!(p, RPath::test(RNode::Label(a)).seq(RPath::Axis(Axis::Down)));
        let f = parse_rnode("W(<down+[b]>)", &mut ab).unwrap();
        let b = ab.lookup("b").unwrap();
        assert_eq!(
            f,
            RNode::some(RPath::Axis(Axis::Down).plus().filter(RNode::Label(b))).within()
        );
        assert_eq!(
            parse_rnode("within(true)", &mut ab).unwrap(),
            RNode::True.within()
        );
    }

    #[test]
    fn postfix_chains() {
        let mut ab = Alphabet::new();
        let p = parse_rpath("down[a]*[b]", &mut ab).unwrap();
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        assert_eq!(
            p,
            RPath::Axis(Axis::Down)
                .filter(RNode::Label(a))
                .star()
                .filter(RNode::Label(b))
        );
    }

    #[test]
    fn eps_dot() {
        let mut ab = Alphabet::new();
        assert_eq!(parse_rpath(".", &mut ab).unwrap(), RPath::Eps);
        assert_eq!(
            parse_rpath("./down", &mut ab).unwrap(),
            RPath::Eps.seq(RPath::Axis(Axis::Down))
        );
    }

    #[test]
    fn errors() {
        let mut ab = Alphabet::new();
        assert!(parse_rpath("down**[", &mut ab).is_err());
        assert!(parse_rpath("?a", &mut ab).is_err());
        assert!(parse_rnode("W down", &mut ab).is_err());
        assert!(parse_rpath("", &mut ab).is_err());
        assert!(parse_rnode("", &mut ab).is_err());
    }

    #[test]
    fn resolved_mode_rejects_unknown_labels_without_interning() {
        let ab = Alphabet::from_names(["a"]);
        let p = parse_rpath_resolved("down*[a]", &ab).unwrap();
        assert_eq!(
            p,
            RPath::Axis(Axis::Down)
                .star()
                .filter(RNode::Label(ab.lookup("a").unwrap()))
        );
        match parse_rpath_resolved("down[zzz]", &ab) {
            Err(ResolveError::UnknownLabel { label, .. }) => assert_eq!(label, "zzz"),
            other => panic!("expected UnknownLabel, got {other:?}"),
        }
        assert_eq!(ab.len(), 1, "resolve mode must not intern");
        // plain syntax errors still come out as Syntax
        assert!(matches!(
            parse_rnode_resolved("W down", &ab),
            Err(ResolveError::Syntax(_))
        ));
    }

    #[test]
    fn catalog_mode_interns_into_the_shared_space() {
        let catalog = Catalog::new();
        let p = parse_rpath_catalog("down[a]/down[b]", &catalog).unwrap();
        assert_eq!(catalog.len(), 2);
        let f = parse_rnode_catalog("a or b", &catalog).unwrap();
        assert_eq!(catalog.len(), 2, "names reused, not re-interned");
        let a = catalog.lookup("a").unwrap();
        let b = catalog.lookup("b").unwrap();
        assert_eq!(f, RNode::Label(a).or(RNode::Label(b)));
        assert_eq!(
            p,
            RPath::Axis(Axis::Down)
                .filter(RNode::Label(a))
                .seq(RPath::Axis(Axis::Down).filter(RNode::Label(b)))
        );
    }
}
