//! Recursive-descent parser building a [`PartitioningGraph`] from source.
//!
//! Grammar (statements in any order, nodes must be declared before they are
//! connected):
//!
//! ```text
//! spec      := { stmt }
//! stmt      := "design" IDENT ";"
//!            | "input"  IDENT ":" INT ";"
//!            | "output" IDENT ":" INT ";"
//!            | "node"   IDENT "=" behavior ";"
//!            | "connect" endpoint "->" endpoint [ ":" INT ] ";"
//! behavior  := OPNAME                    -- e.g. add, mul, neg ... (fixed arity)
//!            | "mac" | "id"
//!            | "const" "(" INT ")"
//!            | "expr" "(" INT ")" "{" sexpr { "," sexpr } "}"
//! endpoint  := IDENT [ "." INT ]         -- port defaults to 0
//! sexpr     := "in" INT-suffix (e.g. in0) | INT | "(" OPNAME { sexpr } ")"
//! ```

use std::fmt;

use cool_ir::{Behavior, Expr, IrError, Op, PartitioningGraph};

use crate::lexer::{lex, LexError, Token, TokenKind};

/// Error produced while parsing a specification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// A character the lexer does not understand.
    BadChar {
        /// 1-based source line.
        line: u32,
        /// The offending character.
        ch: char,
    },
    /// A token that does not fit the grammar.
    Unexpected {
        /// 1-based source line.
        line: u32,
        /// What was found, rendered for humans.
        found: String,
        /// What the parser expected.
        expected: &'static str,
    },
    /// `connect` referenced an undeclared node.
    UnknownNode {
        /// 1-based source line.
        line: u32,
        /// The undeclared name.
        name: String,
    },
    /// An unknown behaviour or operator name.
    UnknownBehavior {
        /// 1-based source line.
        line: u32,
        /// The unknown name.
        name: String,
    },
    /// The constructed graph violates an IR invariant.
    Ir(IrError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadChar { line, ch } => {
                write!(f, "line {line}: unexpected character `{ch}`")
            }
            SpecError::Unexpected {
                line,
                found,
                expected,
            } => {
                write!(f, "line {line}: expected {expected}, found {found}")
            }
            SpecError::UnknownNode { line, name } => {
                write!(f, "line {line}: unknown node `{name}`")
            }
            SpecError::UnknownBehavior { line, name } => {
                write!(f, "line {line}: unknown behaviour `{name}`")
            }
            SpecError::Ir(e) => write!(f, "specification builds an invalid graph: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for SpecError {
    fn from(e: IrError) -> SpecError {
        SpecError::Ir(e)
    }
}

impl From<LexError> for SpecError {
    fn from(e: LexError) -> SpecError {
        SpecError::BadChar {
            line: e.line,
            ch: e.ch,
        }
    }
}

/// Parse a specification into a validated partitioning graph.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the first lexical, syntactic or
/// structural problem. The returned graph has passed
/// [`PartitioningGraph::validate`].
pub fn parse(src: &str) -> Result<PartitioningGraph, SpecError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        graph: PartitioningGraph::new("unnamed"),
    };
    p.parse_spec()?;
    p.graph.validate()?;
    Ok(p.graph)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    graph: PartitioningGraph,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn unexpected(&self, expected: &'static str) -> SpecError {
        let t = self.peek();
        SpecError::Unexpected {
            line: t.line,
            found: t.kind.to_string(),
            expected,
        }
    }

    fn expect_ident(&mut self) -> Result<(String, u32), SpecError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                let line = self.bump().line;
                Ok((s, line))
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn expect_int(&mut self) -> Result<i64, SpecError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.unexpected("an integer")),
        }
    }

    /// An integer constrained to `0..=max` (widths, arities, ports).
    /// Returning an error instead of `as`-casting keeps a malformed spec
    /// (e.g. `input a : -16;`) from silently building a garbage graph.
    fn expect_uint(&mut self, max: i64, what: &'static str) -> Result<i64, SpecError> {
        let line = self.peek().line;
        let v = self.expect_int()?;
        if (0..=max).contains(&v) {
            Ok(v)
        } else {
            Err(SpecError::Unexpected {
                line,
                found: format!("integer `{v}`"),
                expected: what,
            })
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &'static str) -> Result<(), SpecError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn parse_spec(&mut self) -> Result<(), SpecError> {
        loop {
            match self.peek().kind.clone() {
                TokenKind::Eof => return Ok(()),
                TokenKind::Ident(kw) => match kw.as_str() {
                    "design" => self.parse_design()?,
                    "input" => self.parse_io(true)?,
                    "output" => self.parse_io(false)?,
                    "node" => self.parse_node()?,
                    "connect" => self.parse_connect()?,
                    _ => return Err(self.unexpected("a statement keyword")),
                },
                _ => return Err(self.unexpected("a statement keyword")),
            }
        }
    }

    fn parse_design(&mut self) -> Result<(), SpecError> {
        self.bump(); // design
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Semi, "`;`")?;
        // Rebuild the graph with the right name, keeping already-added nodes
        // is unnecessary: `design` conventionally comes first. If it does
        // not, only the name changes.
        let mut g = PartitioningGraph::new(name);
        std::mem::swap(&mut g, &mut self.graph);
        // Re-add content if any statements preceded `design`.
        if g.node_count() > 0 {
            // Extremely unusual; rebuild by copying.
            let renamed = self.graph.name().to_string();
            let mut fresh = PartitioningGraph::new(renamed);
            std::mem::swap(&mut fresh, &mut self.graph);
            let _ = fresh;
            // Reconstruct nodes/edges from `g`.
            self.copy_graph(&g)?;
        }
        Ok(())
    }

    fn copy_graph(&mut self, g: &PartitioningGraph) -> Result<(), SpecError> {
        use cool_ir::NodeKind;
        for (_, n) in g.nodes() {
            match n.kind() {
                NodeKind::Input => {
                    self.graph.add_input(n.name(), 16);
                }
                NodeKind::Output => {
                    self.graph.add_output(n.name(), 16);
                }
                NodeKind::Function => {
                    self.graph.add_function(n.name(), n.behavior().clone())?;
                }
            }
        }
        for (_, e) in g.edges() {
            // The nodes were copied just above; if a lookup misses, the
            // source graph had duplicate names — report, don't panic.
            let src_name = g.node(e.src)?.name();
            let src = self
                .graph
                .node_by_name(src_name)
                .ok_or_else(|| SpecError::UnknownNode {
                    line: 0,
                    name: src_name.to_string(),
                })?;
            let dst_name = g.node(e.dst)?.name();
            let dst = self
                .graph
                .node_by_name(dst_name)
                .ok_or_else(|| SpecError::UnknownNode {
                    line: 0,
                    name: dst_name.to_string(),
                })?;
            self.graph
                .connect(src, e.src_port, dst, e.dst_port, e.bits)?;
        }
        Ok(())
    }

    fn parse_io(&mut self, input: bool) -> Result<(), SpecError> {
        self.bump(); // input/output
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Colon, "`:`")?;
        let bits = self.expect_uint(i64::from(u16::MAX), "a bit width in 0..=65535")? as u16;
        self.expect(&TokenKind::Semi, "`;`")?;
        // `add_input`/`add_output` panic on a taken name; a spec that
        // declares one twice is an error like a duplicate `node`.
        if self.graph.node_by_name(&name).is_some() {
            return Err(IrError::DuplicateName(name).into());
        }
        if input {
            self.graph.add_input(name, bits);
        } else {
            self.graph.add_output(name, bits);
        }
        Ok(())
    }

    fn parse_node(&mut self) -> Result<(), SpecError> {
        self.bump(); // node
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Equals, "`=`")?;
        let behavior = self.parse_behavior()?;
        self.expect(&TokenKind::Semi, "`;`")?;
        self.graph.add_function(name, behavior)?;
        Ok(())
    }

    fn parse_behavior(&mut self) -> Result<Behavior, SpecError> {
        let (name, line) = self.expect_ident()?;
        match name.as_str() {
            "mac" => Ok(Behavior::mac()),
            "id" => Ok(Behavior::identity()),
            "const" => {
                self.expect(&TokenKind::LParen, "`(`")?;
                let v = self.expect_int()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(Behavior::constant(v))
            }
            "expr" => {
                self.expect(&TokenKind::LParen, "`(`")?;
                let arity = self.expect_uint(64, "an arity in 0..=64")? as usize;
                self.expect(&TokenKind::RParen, "`)`")?;
                self.expect(&TokenKind::LBrace, "`{`")?;
                let mut outputs = vec![self.parse_sexpr()?];
                while self.peek().kind == TokenKind::Comma {
                    self.bump();
                    outputs.push(self.parse_sexpr()?);
                }
                self.expect(&TokenKind::RBrace, "`}`")?;
                Ok(Behavior::new(arity, outputs)?)
            }
            op => {
                let op = op_by_name(op).ok_or(SpecError::UnknownBehavior {
                    line,
                    name: name.clone(),
                })?;
                Ok(match op.arity() {
                    1 => Behavior::unary(op),
                    2 => Behavior::binary(op),
                    _ => Behavior::new(
                        3,
                        vec![Expr::Apply(
                            op,
                            vec![Expr::Input(0), Expr::Input(1), Expr::Input(2)],
                        )],
                    )?,
                })
            }
        }
    }

    fn parse_sexpr(&mut self) -> Result<Expr, SpecError> {
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Const(v))
            }
            TokenKind::Ident(s) => {
                let line = self.bump().line;
                if let Some(rest) = s.strip_prefix("in") {
                    if let Ok(idx) = rest.parse::<usize>() {
                        return Ok(Expr::Input(idx));
                    }
                }
                Err(SpecError::UnknownBehavior { line, name: s })
            }
            TokenKind::LParen => {
                self.bump();
                let (opname, line) = self.expect_ident()?;
                let op =
                    op_by_name(&opname).ok_or(SpecError::UnknownBehavior { line, name: opname })?;
                let mut args = Vec::new();
                while self.peek().kind != TokenKind::RParen {
                    args.push(self.parse_sexpr()?);
                }
                self.bump(); // )
                if args.len() != op.arity() {
                    return Err(SpecError::Unexpected {
                        line,
                        found: format!("{} operand(s)", args.len()),
                        expected: "operator arity operands",
                    });
                }
                Ok(Expr::Apply(op, args))
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_connect(&mut self) -> Result<(), SpecError> {
        self.bump(); // connect
        let (src, src_port, line) = self.parse_endpoint()?;
        self.expect(&TokenKind::Arrow, "`->`")?;
        let (dst, dst_port, _) = self.parse_endpoint()?;
        let bits = if self.peek().kind == TokenKind::Colon {
            self.bump();
            self.expect_uint(i64::from(u16::MAX), "a bit width in 0..=65535")? as u16
        } else {
            16
        };
        self.expect(&TokenKind::Semi, "`;`")?;
        let src_id = self
            .graph
            .node_by_name(&src)
            .ok_or(SpecError::UnknownNode { line, name: src })?;
        let dst_id = self
            .graph
            .node_by_name(&dst)
            .ok_or(SpecError::UnknownNode { line, name: dst })?;
        self.graph
            .connect(src_id, src_port, dst_id, dst_port, bits)?;
        Ok(())
    }

    fn parse_endpoint(&mut self) -> Result<(String, u16, u32), SpecError> {
        let (name, line) = self.expect_ident()?;
        let port = if self.peek().kind == TokenKind::Dot {
            self.bump();
            self.expect_uint(i64::from(u16::MAX), "a port index in 0..=65535")? as u16
        } else {
            0
        };
        Ok((name, port, line))
    }
}

/// Resolve an operator mnemonic as used in specifications.
#[must_use]
pub(crate) fn op_by_name(name: &str) -> Option<Op> {
    Op::all().iter().copied().find(|op| op.mnemonic() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_ir::eval::{evaluate, input_map};

    #[test]
    fn parses_and_evaluates_adder() {
        let g = parse(
            "design adder; input a : 16; input b : 16; node s = add; output y : 16;
             connect a -> s.0; connect b -> s.1; connect s -> y;",
        )
        .unwrap();
        assert_eq!(g.name(), "adder");
        let out = evaluate(&g, &input_map([("a", 1), ("b", 2)])).unwrap();
        assert_eq!(out["y"], 3);
    }

    #[test]
    fn parses_expr_behavior() {
        let g = parse(
            "design e; input x : 16; node f = expr(1) { (mul in0 (add in0 1)) };
             output y : 32; connect x -> f; connect f -> y : 32;",
        )
        .unwrap();
        let out = evaluate(&g, &input_map([("x", 6)])).unwrap();
        assert_eq!(out["y"], 42);
    }

    #[test]
    fn parses_const_and_mac() {
        let g = parse(
            "design m; input x : 16; node c = const(10); node m1 = mac; output y : 16;
             connect x -> m1.0; connect x -> m1.1; connect c -> m1.2; connect m1 -> y;",
        )
        .unwrap();
        let out = evaluate(&g, &input_map([("x", 5)])).unwrap();
        assert_eq!(out["y"], 35);
    }

    #[test]
    fn multi_output_expr() {
        let g = parse(
            "design s; input a : 16; input b : 16;
             node f = expr(2) { (add in0 in1), (sub in0 in1) };
             output p : 16; output q : 16;
             connect a -> f.0; connect b -> f.1;
             connect f.0 -> p; connect f.1 -> q;",
        )
        .unwrap();
        let out = evaluate(&g, &input_map([("a", 9), ("b", 4)])).unwrap();
        assert_eq!(out["p"], 13);
        assert_eq!(out["q"], 5);
    }

    #[test]
    fn unknown_node_in_connect() {
        let err = parse("design d; input a : 8; connect a -> nosuch;").unwrap_err();
        assert!(matches!(err, SpecError::UnknownNode { .. }));
    }

    #[test]
    fn unknown_behavior() {
        let err = parse("design d; node f = frobnicate;").unwrap_err();
        assert!(matches!(err, SpecError::UnknownBehavior { .. }));
    }

    #[test]
    fn syntax_error_has_line() {
        let err = parse("design d;\ninput a 16;").unwrap_err();
        match err {
            SpecError::Unexpected { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn arity_mismatch_in_sexpr() {
        let err = parse("design d; node f = expr(1) { (add in0) };").unwrap_err();
        assert!(matches!(err, SpecError::Unexpected { .. }));
    }

    #[test]
    fn invalid_graph_reported() {
        // f's input is never driven.
        let err = parse("design d; node f = neg;").unwrap_err();
        assert!(matches!(err, SpecError::Ir(_)));
    }

    #[test]
    fn display_formats() {
        let err = parse("design d; node f = frobnicate;").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        // Every entry must produce a SpecError — never a panic, never a
        // silently-wrapped garbage value.
        let cases = [
            "input a : -16;",                                          // negative width
            "design d; input a : 99999;",                              // width over u16
            "design d; node f = expr(-2) { in0 };",                    // negative arity
            "design d; node f = expr(999) { in0 };",                   // absurd arity
            "design d; input a : 8; output y : 8; connect a.-1 -> y;", // negative port
            "design d; connect -> ;",                                  // junk connect
            "node",                                                    // truncated input
            "design",                                                  // truncated input
            "design d; input a : 8; connect a -> a;",                  // self loop (IR error)
            "\u{1F980}",                                               // non-ASCII char
        ];
        for src in cases {
            let err = parse(src).expect_err(src);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn duplicate_primary_io_names_error_instead_of_panicking() {
        for src in [
            "design d; input x : 16; input x : 16; node f = neg; x -> f; output y : 16; f -> y;",
            "design d; input x : 16; output y : 16; output y : 16;",
            "design d; node x = neg; input x : 16;",
        ] {
            match parse(src) {
                Err(SpecError::Ir(IrError::DuplicateName(_))) => {}
                other => panic!("{src}: expected a duplicate-name error, got {other:?}"),
            }
        }
    }

    #[test]
    fn negative_width_reports_line_and_expectation() {
        let err = parse("design d;\ninput a : -4;").unwrap_err();
        match &err {
            SpecError::Unexpected { line, expected, .. } => {
                assert_eq!(*line, 2);
                assert!(expected.contains("bit width"), "{err}");
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
