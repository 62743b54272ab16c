//! Recursive-descent parser for the XQuery subset.
//!
//! Hand-written over a byte cursor. Element constructors switch the
//! cursor into raw-content mode (text until `{`, `<`, or the closing
//! tag), which a token-stream lexer cannot express cleanly — hence no
//! separate lexer.

use std::fmt;

use crate::ast::{CPart, Clause, CmpOp, PathAxis, PathStep, QExpr};

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for QParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XQuery parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for QParseError {}

/// Maximum nesting of expressions and element constructors a query may
/// use. Parsing recurses once per level, so the limit bounds the stack a
/// query can demand: deeper input is a parse error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete query; trailing input is an error.
pub fn parse_query(input: &str) -> Result<QExpr, QParseError> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.ws();
    let e = p.expr()?;
    p.ws();
    if !p.eof() {
        return p.err("trailing input after query");
    }
    Ok(e)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    /// Current expression/constructor nesting (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, QParseError> {
        Err(QParseError {
            offset: self.pos,
            message: msg.into(),
        })
    }

    fn eof(&self) -> bool {
        self.pos >= self.s.len()
    }

    fn peek(&self) -> u8 {
        if self.eof() {
            0
        } else {
            self.s[self.pos]
        }
    }

    fn starts(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat.as_bytes())
    }

    fn ws(&mut self) {
        loop {
            while !self.eof() && self.peek().is_ascii_whitespace() {
                self.pos += 1;
            }
            // XQuery comments: (: … :), possibly nested.
            if self.starts("(:") {
                let mut depth = 0usize;
                while !self.eof() {
                    if self.starts("(:") {
                        depth += 1;
                        self.pos += 2;
                    } else if self.starts(":)") {
                        depth -= 1;
                        self.pos += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        self.pos += 1;
                    }
                }
            } else {
                return;
            }
        }
    }

    /// Consume `kw` if present as a whole word.
    fn keyword(&mut self, kw: &str) -> bool {
        if !self.starts(kw) {
            return false;
        }
        let after = self.pos + kw.len();
        let boundary = after >= self.s.len()
            || !(self.s[after].is_ascii_alphanumeric()
                || self.s[after] == b'_'
                || self.s[after] == b'-');
        if boundary {
            self.pos = after;
            self.ws();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, pat: &str) -> Result<(), QParseError> {
        if self.starts(pat) {
            self.pos += pat.len();
            self.ws();
            Ok(())
        } else {
            self.err(format!("expected `{pat}`"))
        }
    }

    fn name(&mut self) -> Result<String, QParseError> {
        let start = self.pos;
        while !self.eof() {
            let c = self.peek();
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn variable(&mut self) -> Result<String, QParseError> {
        self.expect_raw(b'$')?;
        let n = self.name()?;
        self.ws();
        Ok(n)
    }

    fn expect_raw(&mut self, b: u8) -> Result<(), QParseError> {
        if self.peek() == b {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn string_literal(&mut self) -> Result<String, QParseError> {
        let q = self.peek();
        if q != b'"' && q != b'\'' {
            return self.err("expected string literal");
        }
        self.pos += 1;
        let start = self.pos;
        while !self.eof() && self.peek() != q {
            self.pos += 1;
        }
        if self.eof() {
            return self.err("unterminated string literal");
        }
        let v = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.pos += 1;
        self.ws();
        Ok(v)
    }

    // ----- expression grammar (precedence climbing) -------------------

    /// Run `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<QExpr, QParseError>,
    ) -> Result<QExpr, QParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("query nests deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        e
    }

    fn expr(&mut self) -> Result<QExpr, QParseError> {
        self.nested(Self::expr_level)
    }

    /// expr := flwr | quantified | or-expr
    fn expr_level(&mut self) -> Result<QExpr, QParseError> {
        if self.starts("for ")
            || self.starts("for\n")
            || self.starts("let ")
            || self.starts("let\n")
            || self.starts("for\t")
            || self.starts("let\t")
            || self.starts("for $")
            || self.starts("let $")
        {
            return self.flwr();
        }
        if self.keyword("some") {
            return self.quantified(false);
        }
        if self.keyword("every") {
            return self.quantified(true);
        }
        self.or_expr()
    }

    fn flwr(&mut self) -> Result<QExpr, QParseError> {
        let mut clauses = Vec::new();
        loop {
            if self.keyword("for") {
                clauses.push(Clause::For(self.bindings(false)?));
            } else if self.keyword("let") {
                clauses.push(Clause::Let(self.bindings(true)?));
            } else if self.keyword("where") {
                clauses.push(Clause::Where(self.expr()?));
            } else if self.keyword("return") {
                let ret = self.expr()?;
                if clauses.is_empty() {
                    return self.err("FLWR expression without clauses");
                }
                return Ok(QExpr::Flwr {
                    clauses,
                    ret: Box::new(ret),
                });
            } else {
                return self.err("expected for/let/where/return");
            }
        }
    }

    fn bindings(&mut self, is_let: bool) -> Result<Vec<(String, QExpr)>, QParseError> {
        let mut out = Vec::new();
        loop {
            let var = self.variable()?;
            if is_let {
                self.expect(":=")?;
            } else if !self.keyword("in") {
                return self.err("expected `in`");
            }
            let e = self.expr()?;
            out.push((var, e));
            self.ws();
            if self.peek() == b',' {
                self.pos += 1;
                self.ws();
                continue;
            }
            return Ok(out);
        }
    }

    fn quantified(&mut self, universal: bool) -> Result<QExpr, QParseError> {
        let var = self.variable()?;
        if !self.keyword("in") {
            return self.err("expected `in`");
        }
        let range = self.expr()?;
        if !self.keyword("satisfies") {
            return self.err("expected `satisfies`");
        }
        let satisfies = self.expr()?;
        Ok(if universal {
            QExpr::Every {
                var,
                range: Box::new(range),
                satisfies: Box::new(satisfies),
            }
        } else {
            QExpr::Some_ {
                var,
                range: Box::new(range),
                satisfies: Box::new(satisfies),
            }
        })
    }

    fn or_expr(&mut self) -> Result<QExpr, QParseError> {
        let mut left = self.and_expr()?;
        while self.keyword("or") {
            let right = self.and_expr()?;
            left = QExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<QExpr, QParseError> {
        let mut left = self.cmp_expr()?;
        while self.keyword("and") {
            let right = self.cmp_expr()?;
            left = QExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<QExpr, QParseError> {
        let left = self.additive_expr()?;
        self.ws();
        let op = if self.starts("!=") {
            self.pos += 2;
            Some(CmpOp::Ne)
        } else if self.starts("<=") {
            self.pos += 2;
            Some(CmpOp::Le)
        } else if self.starts(">=") {
            self.pos += 2;
            Some(CmpOp::Ge)
        } else if self.peek() == b'=' {
            self.pos += 1;
            Some(CmpOp::Eq)
        } else if self.peek() == b'>' {
            self.pos += 1;
            Some(CmpOp::Gt)
        } else if self.peek() == b'<' && !self.looks_like_constructor() {
            self.pos += 1;
            Some(CmpOp::Lt)
        } else {
            None
        };
        match op {
            None => Ok(left),
            Some(op) => {
                self.ws();
                let right = self.additive_expr()?;
                Ok(QExpr::Cmp(op, Box::new(left), Box::new(right)))
            }
        }
    }

    /// `a + b - c` (left-associative). A `-` directly attached to a name
    /// belongs to the name (`distinct-values`), so the operator requires
    /// an operand boundary, which the tokenizer provides naturally: names
    /// greedily consume `-`, so a binary minus must be preceded by
    /// whitespace or a non-name operand.
    fn additive_expr(&mut self) -> Result<QExpr, QParseError> {
        let mut left = self.multiplicative_expr()?;
        loop {
            self.ws();
            let op = if self.peek() == b'+' {
                self.pos += 1;
                ArithKw::Add
            } else if self.peek() == b'-' {
                self.pos += 1;
                ArithKw::Sub
            } else {
                break;
            };
            self.ws();
            let right = self.multiplicative_expr()?;
            left = mk_arith(op, left, right);
        }
        Ok(left)
    }

    /// `a * b div c mod d` (left-associative). `*` is multiplication only
    /// in operator position — path wildcards are consumed by `steps()`
    /// before control returns here.
    fn multiplicative_expr(&mut self) -> Result<QExpr, QParseError> {
        let mut left = self.path_expr()?;
        loop {
            self.ws();
            let op = if self.peek() == b'*' {
                self.pos += 1;
                ArithKw::Mul
            } else if self.keyword("div") {
                ArithKw::Div
            } else if self.keyword("mod") {
                ArithKw::Mod
            } else {
                break;
            };
            self.ws();
            let right = self.path_expr()?;
            left = mk_arith(op, left, right);
        }
        Ok(left)
    }

    /// `<` starts a constructor iff followed directly by a name character
    /// (`< x` is a comparison; `<x` a constructor).
    fn looks_like_constructor(&self) -> bool {
        self.pos + 1 < self.s.len() && {
            let c = self.s[self.pos + 1];
            c.is_ascii_alphabetic() || c == b'_'
        }
    }

    /// primary followed by path steps.
    fn path_expr(&mut self) -> Result<QExpr, QParseError> {
        let base = self.primary()?;
        let steps = self.steps()?;
        if steps.is_empty() {
            Ok(base)
        } else {
            Ok(QExpr::Path {
                base: Box::new(base),
                steps,
            })
        }
    }

    fn steps(&mut self) -> Result<Vec<PathStep>, QParseError> {
        let mut steps = Vec::new();
        loop {
            let axis = if self.starts("//") {
                self.pos += 2;
                PathAxis::Descendant
            } else if self.peek() == b'/' {
                self.pos += 1;
                PathAxis::Child
            } else {
                break;
            };
            let axis = if self.peek() == b'@' {
                self.pos += 1;
                if axis == PathAxis::Descendant {
                    return self.err("`//@attr` is not supported");
                }
                PathAxis::Attribute
            } else {
                axis
            };
            let test = if self.peek() == b'*' {
                self.pos += 1;
                "*".to_string()
            } else {
                self.name()?
            };
            let mut predicates = Vec::new();
            self.ws_inline();
            while self.peek() == b'[' {
                self.pos += 1;
                self.ws();
                predicates.push(self.expr()?);
                self.ws();
                self.expect_raw(b']')?;
                self.ws_inline();
            }
            steps.push(PathStep {
                axis,
                test,
                predicates,
            });
        }
        self.ws();
        Ok(steps)
    }

    /// Whitespace that may precede a predicate but not a new token.
    fn ws_inline(&mut self) {
        if !self.eof()
            && (self.peek() == b' '
                || self.peek() == b'\n'
                || self.peek() == b'\t'
                || self.peek() == b'\r')
        {
            // Only skip if a `[` follows eventually on this run; cheap
            // approach: peek the next non-ws byte without consuming.
            let mut k = self.pos;
            while k < self.s.len() && self.s[k].is_ascii_whitespace() {
                k += 1;
            }
            if k < self.s.len() && self.s[k] == b'[' {
                self.pos = k;
            }
        }
    }

    fn primary(&mut self) -> Result<QExpr, QParseError> {
        self.ws();
        match self.peek() {
            b'$' => {
                let v = self.variable()?;
                Ok(QExpr::Var(v))
            }
            b'"' | b'\'' => Ok(QExpr::Str(self.string_literal()?)),
            b'(' => {
                self.pos += 1;
                self.ws();
                let mut items = vec![self.expr()?];
                self.ws();
                while self.peek() == b',' {
                    self.pos += 1;
                    self.ws();
                    items.push(self.expr()?);
                    self.ws();
                }
                self.expect_raw(b')')?;
                self.ws();
                if items.len() == 1 {
                    Ok(items.pop().expect("len checked"))
                } else {
                    Ok(QExpr::Seq(items))
                }
            }
            b'<' => self.nested(Self::constructor),
            c if c.is_ascii_digit() => self.number(),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.name()?;
                self.ws();
                if self.peek() == b'(' {
                    self.pos += 1;
                    self.ws();
                    let mut args = Vec::new();
                    if self.peek() != b')' {
                        args.push(self.expr()?);
                        self.ws();
                        while self.peek() == b',' {
                            self.pos += 1;
                            self.ws();
                            args.push(self.expr()?);
                            self.ws();
                        }
                    }
                    self.expect_raw(b')')?;
                    self.ws();
                    Ok(match name.as_str() {
                        "doc" | "document" => match args.as_slice() {
                            [QExpr::Str(uri)] => QExpr::Doc(uri.clone()),
                            _ => return self.err("doc() expects one string literal"),
                        },
                        "not" => match args.len() {
                            1 => QExpr::Not(Box::new(args.pop_single())),
                            _ => return self.err("not() expects one argument"),
                        },
                        "true" if args.is_empty() => QExpr::Bool(true),
                        "false" if args.is_empty() => QExpr::Bool(false),
                        _ => QExpr::Call(name, args),
                    })
                } else {
                    // A bare name in expression position: a relative child
                    // path from the context (used inside path predicates,
                    // e.g. `[$a1 = author]`). Model as a context path with
                    // a magic `.` base the normalizer re-anchors.
                    Ok(QExpr::Path {
                        base: Box::new(QExpr::Var(".".to_string())),
                        steps: vec![PathStep {
                            axis: PathAxis::Child,
                            test: name,
                            predicates: vec![],
                        }],
                    })
                }
            }
            b'@' => {
                self.pos += 1;
                let name = self.name()?;
                self.ws();
                Ok(QExpr::Path {
                    base: Box::new(QExpr::Var(".".to_string())),
                    steps: vec![PathStep {
                        axis: PathAxis::Attribute,
                        test: name,
                        predicates: vec![],
                    }],
                })
            }
            _ => self.err("expected an expression"),
        }
    }

    fn number(&mut self) -> Result<QExpr, QParseError> {
        let start = self.pos;
        while !self.eof() && self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        let is_dec = self.peek() == b'.';
        if is_dec {
            self.pos += 1;
            while !self.eof() && self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| QParseError {
            offset: start,
            message: "bad number".into(),
        })?;
        self.ws();
        if is_dec {
            text.parse::<f64>()
                .map(QExpr::Dec)
                .map_err(|_| QParseError {
                    offset: start,
                    message: "bad decimal".into(),
                })
        } else {
            text.parse::<i64>()
                .map(QExpr::Int)
                .map_err(|_| QParseError {
                    offset: start,
                    message: "bad integer".into(),
                })
        }
    }

    // ----- direct element constructors ---------------------------------

    fn constructor(&mut self) -> Result<QExpr, QParseError> {
        self.expect_raw(b'<')?;
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.ws();
            if self.starts("/>") {
                self.pos += 2;
                self.ws();
                return Ok(QExpr::Elem {
                    name,
                    attrs,
                    content: vec![],
                });
            }
            if self.peek() == b'>' {
                self.pos += 1;
                break;
            }
            let aname = self.name()?;
            self.ws();
            self.expect_raw(b'=')?;
            self.ws();
            attrs.push((aname, self.attr_content()?));
        }
        // Raw content until the matching end tag; `{…}` switches back to
        // expression mode, nested constructors recurse.
        let mut content: Vec<CPart> = Vec::new();
        let mut text = String::new();
        loop {
            if self.eof() {
                return self.err(format!("missing </{name}>"));
            }
            if self.starts("</") {
                flush_text(&mut text, &mut content);
                self.pos += 2;
                let end = self.name()?;
                if end != name {
                    return self.err(format!("mismatched </{end}>, expected </{name}>"));
                }
                self.ws();
                self.expect_raw(b'>')?;
                self.ws();
                return Ok(QExpr::Elem {
                    name,
                    attrs,
                    content,
                });
            }
            if self.peek() == b'{' {
                flush_text(&mut text, &mut content);
                self.pos += 1;
                self.ws();
                let e = self.expr()?;
                self.ws();
                self.expect_raw(b'}')?;
                content.push(CPart::Embed(e));
                continue;
            }
            if self.peek() == b'<' {
                flush_text(&mut text, &mut content);
                let inner = self.nested(Self::constructor)?;
                content.push(CPart::Embed(inner));
                continue;
            }
            text.push(self.peek() as char);
            self.pos += 1;
        }
    }

    fn attr_content(&mut self) -> Result<Vec<CPart>, QParseError> {
        let q = self.peek();
        if q != b'"' && q != b'\'' {
            return self.err("expected quoted attribute value");
        }
        self.pos += 1;
        let mut parts = Vec::new();
        let mut text = String::new();
        while !self.eof() && self.peek() != q {
            if self.peek() == b'{' {
                flush_text(&mut text, &mut parts);
                self.pos += 1;
                self.ws();
                let e = self.expr()?;
                self.ws();
                self.expect_raw(b'}')?;
                parts.push(CPart::Embed(e));
            } else {
                text.push(self.peek() as char);
                self.pos += 1;
            }
        }
        flush_text(&mut text, &mut parts);
        self.expect_raw(q)?;
        Ok(parts)
    }
}

#[derive(Clone, Copy)]
enum ArithKw {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

fn mk_arith(op: ArithKw, l: QExpr, r: QExpr) -> QExpr {
    let name = match op {
        ArithKw::Add => "+",
        ArithKw::Sub => "-",
        ArithKw::Mul => "*",
        ArithKw::Div => "div",
        ArithKw::Mod => "mod",
    };
    // Arithmetic rides on Call until translation, keeping the AST small.
    QExpr::Call(format!("op:{name}"), vec![l, r])
}

fn flush_text(text: &mut String, parts: &mut Vec<CPart>) {
    // Whitespace-only runs between markup are formatting, not content.
    if !text.trim().is_empty() {
        parts.push(CPart::Text(std::mem::take(text)));
    } else {
        text.clear();
    }
}

trait PopSingle {
    fn pop_single(self) -> QExpr;
}

impl PopSingle for Vec<QExpr> {
    fn pop_single(mut self) -> QExpr {
        self.pop().expect("checked length 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> QExpr {
        parse_query(s).unwrap_or_else(|e| panic!("{e}\nquery: {s}"))
    }

    #[test]
    fn parses_q1_grouping() {
        let q = parse(
            r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               return
                 <author>
                   <name> { $a1 } </name>
                   {
                     let $d2 := doc("bib.xml")
                     for $b2 in $d2//book[$a1 = author]
                     return $b2/title
                   }
                 </author>"#,
        );
        let QExpr::Flwr { clauses, ret } = q else {
            panic!()
        };
        assert_eq!(clauses.len(), 2);
        let QExpr::Elem { name, content, .. } = *ret else {
            panic!()
        };
        assert_eq!(name, "author");
        assert_eq!(content.len(), 2); // <name> and the embedded FLWR
        let CPart::Embed(QExpr::Flwr { clauses: inner, .. }) = &content[1] else {
            panic!("{content:?}")
        };
        // The for range carries a predicate.
        let Clause::For(bs) = &inner[1] else { panic!() };
        let QExpr::Path { steps, .. } = &bs[0].1 else {
            panic!()
        };
        assert_eq!(steps[0].predicates.len(), 1);
    }

    #[test]
    fn parses_quantifiers() {
        let q = parse(
            r#"let $d1 := doc("bib.xml")
               for $t1 in $d1//book/title
               where some $t2 in doc("reviews.xml")//entry/title satisfies $t1 = $t2
               return <book-with-review> { $t1 } </book-with-review>"#,
        );
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Where(QExpr::Some_ {
            var,
            range,
            satisfies,
        }) = &clauses[2]
        else {
            panic!("{:?}", clauses[2])
        };
        assert_eq!(var, "t2");
        assert!(matches!(**range, QExpr::Path { .. }));
        assert!(matches!(**satisfies, QExpr::Cmp(CmpOp::Eq, _, _)));
    }

    #[test]
    fn parses_every_with_attribute_path() {
        let q = parse(
            r#"for $a1 in distinct-values(doc("bib.xml")//author)
               where every $b2 in doc("bib.xml")//book[author = $a1]
                     satisfies $b2/@year > 1993
               return <new-author> { $a1 } </new-author>"#,
        );
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Where(QExpr::Every {
            satisfies, range, ..
        }) = &clauses[1]
        else {
            panic!()
        };
        // @year path on the left of the comparison.
        let QExpr::Cmp(CmpOp::Gt, l, _) = satisfies.as_ref() else {
            panic!()
        };
        let QExpr::Path { steps, .. } = l.as_ref() else {
            panic!()
        };
        assert_eq!(steps[0].axis, PathAxis::Attribute);
        assert_eq!(steps[0].test, "year");
        // Range predicate: bare `author` parses as a context path.
        let QExpr::Path { steps: rsteps, .. } = range.as_ref() else {
            panic!()
        };
        let QExpr::Cmp(_, pl, _) = &rsteps[0].predicates[0] else {
            panic!()
        };
        assert!(matches!(pl.as_ref(), QExpr::Path { .. }));
    }

    #[test]
    fn parses_aggregation_in_where() {
        let q = parse(
            r#"let $d1 := document("bids.xml")
               for $i1 in distinct-values($d1//itemno)
               where count($d1//bidtuple[itemno = $i1]) >= 3
               return <popular-item> { $i1 } </popular-item>"#,
        );
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Where(QExpr::Cmp(CmpOp::Ge, l, r)) = &clauses[2] else {
            panic!()
        };
        assert!(matches!(l.as_ref(), QExpr::Call(n, _) if n == "count"));
        assert_eq!(**r, QExpr::Int(3));
    }

    #[test]
    fn comparison_vs_constructor_disambiguation() {
        // `$a < $b` is a comparison; `<a>…</a>` a constructor.
        let q = parse("let $x := 1 where $x < 2 return <a>{ $x }</a>");
        let QExpr::Flwr { clauses, ret } = q else {
            panic!()
        };
        assert!(matches!(
            &clauses[1],
            Clause::Where(QExpr::Cmp(CmpOp::Lt, _, _))
        ));
        assert!(matches!(*ret, QExpr::Elem { .. }));
    }

    #[test]
    fn attribute_constructors_with_embeds() {
        let q = parse(
            r#"let $t := 1 return <minprice title="{ $t }"><price>{ $t }</price></minprice>"#,
        );
        let QExpr::Flwr { ret, .. } = q else { panic!() };
        let QExpr::Elem { attrs, content, .. } = *ret else {
            panic!()
        };
        assert_eq!(attrs.len(), 1);
        assert!(matches!(&attrs[0].1[0], CPart::Embed(_)));
        let CPart::Embed(QExpr::Elem { name, .. }) = &content[0] else {
            panic!()
        };
        assert_eq!(name, "price");
    }

    #[test]
    fn boolean_connectives_and_functions() {
        let q = parse(
            r#"for $a2 in doc("b.xml")//author
               where contains($a2, "Suciu") and not(empty($a2)) or false()
               return <x/>"#,
        );
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Where(QExpr::Or(l, r)) = &clauses[1] else {
            panic!()
        };
        assert!(matches!(l.as_ref(), QExpr::And(_, _)));
        assert_eq!(**r, QExpr::Bool(false));
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse("(: header :) let $x := 1 return (: mid :) $x");
        assert!(matches!(q, QExpr::Flwr { .. }));
    }

    #[test]
    fn errors_report_offsets() {
        for bad in [
            "let $x 1 return $x",
            "for $x in",
            "<a>{",
            "let $x := (1",
            "some $x satisfies 1",
        ] {
            let e = parse_query(bad).unwrap_err();
            assert!(e.offset <= bad.len(), "{e}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        // The query itself is one level; each parenthesis adds one.
        assert!(parse_query(&nested(MAX_DEPTH - 1)).is_ok());
        let err = parse_query(&nested(MAX_DEPTH)).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        assert!(parse_query(&nested(5_000)).is_err());
        let elems = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse_query(&elems(MAX_DEPTH - 1)).is_ok());
        assert!(parse_query(&elems(MAX_DEPTH)).is_err());
    }

    #[test]
    fn multi_bindings_in_one_clause() {
        let q = parse(r#"for $b1 in doc("b.xml")//book, $a1 in $b1/author return $a1"#);
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::For(bs) = &clauses[0] else {
            panic!()
        };
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[1].0, "a1");
    }
}

#[cfg(test)]
mod arith_tests {
    use super::*;

    #[test]
    fn parses_arithmetic_with_precedence() {
        let q = parse_query("let $x := 1 + 2 * 3 return $x").unwrap();
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Let(bs) = &clauses[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        let QExpr::Call(add, args) = &bs[0].1 else {
            panic!("{:?}", bs[0].1)
        };
        assert_eq!(add, "op:+");
        assert_eq!(args[0], QExpr::Int(1));
        let QExpr::Call(mul, margs) = &args[1] else {
            panic!()
        };
        assert_eq!(mul, "op:*");
        assert_eq!(margs[0], QExpr::Int(2));
        assert_eq!(margs[1], QExpr::Int(3));
    }

    #[test]
    fn div_and_mod_keywords() {
        let q = parse_query("let $x := 10 div 2 mod 3 return $x").unwrap();
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Let(bs) = &clauses[0] else {
            panic!()
        };
        // left-associative: (10 div 2) mod 3
        let QExpr::Call(m, args) = &bs[0].1 else {
            panic!()
        };
        assert_eq!(m, "op:mod");
        let QExpr::Call(d, _) = &args[0] else {
            panic!()
        };
        assert_eq!(d, "op:div");
    }

    #[test]
    fn arithmetic_in_comparisons_and_paths() {
        // price * 1.1 compared against a threshold; path postfix still works.
        let q = parse_query(
            r#"for $b in doc("bib.xml")//book where $b/price * 2 > 100 return $b/title"#,
        )
        .unwrap();
        let QExpr::Flwr { clauses, .. } = q else {
            panic!()
        };
        let Clause::Where(QExpr::Cmp(CmpOp::Gt, l, r)) = &clauses[1] else {
            panic!("{:?}", clauses[1])
        };
        assert!(matches!(l.as_ref(), QExpr::Call(n, _) if n == "op:*"));
        assert_eq!(**r, QExpr::Int(100));
        // `distinct-values` keeps its hyphen (not parsed as subtraction).
        let q = parse_query(r#"for $a in distinct-values(doc("b.xml")//author) return $a"#);
        assert!(q.is_ok());
    }
}
