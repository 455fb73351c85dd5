//! A hand-rolled Rust lexer, just deep enough for rule matching.
//!
//! The lexer strips comments, string/char literals, and lifetimes, and yields a
//! flat stream of spanned tokens. It is *not* a parser: the rules downstream
//! match shallow token patterns (`ident :: ident`, `. ident (`, `ident [`),
//! which is exactly the level of structure a determinism/panic-freedom pass
//! needs. Two artifacts besides tokens come out of a lex:
//!
//! * **Allow directives** — plain `//` line comments (doc comments are ignored)
//!   whose content starts with `lint:allow(rule, reason)` or
//!   `lint:allow-file(rule, reason)`. Directives are recorded with their line so
//!   findings can be suppressed; malformed directives (missing reason, bad
//!   syntax) are reported by the `allow-syntax` meta rule.
//! * **Test regions** — token ranges covered by a `#[cfg(test)]`-attributed
//!   item (almost always `mod tests { .. }`). Rules skip tokens inside them.

/// Where a token starts, 1-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

/// Token classes the rules distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `let`, `HashMap`, ...).
    Ident,
    /// Integer/float literal (content dropped beyond the leading digits).
    Number,
    /// Operator or delimiter; multi-char operators (`+=`, `::`, `->`) arrive
    /// as a single token.
    Punct,
    /// String, raw-string, byte-string, or char literal (contents discarded —
    /// a literal can never trigger a rule).
    Literal,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub span: Span,
}

/// A parsed `lint:allow` comment.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// Rule name inside the parentheses.
    pub rule: String,
    /// The written justification (surrounding quotes trimmed).
    pub reason: String,
    /// `lint:allow-file` (whole file) vs `lint:allow` (same or next line).
    pub file_level: bool,
    /// Line the comment sits on.
    pub line: u32,
}

/// A malformed `lint:allow` comment, surfaced through the `allow-syntax` rule.
#[derive(Clone, Debug)]
pub struct BadAllow {
    pub line: u32,
    pub problem: String,
}

/// Everything a lex produces.
#[derive(Debug, Default)]
pub struct LexOutput {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
    pub bad_allows: Vec<BadAllow>,
    /// Parallel to `tokens`: `true` when the token sits inside a
    /// `#[cfg(test)]`-attributed item.
    pub in_test: Vec<bool>,
}

/// Multi-character operators, longest first (maximal munch).
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            // Counting bytes, not chars: columns drift inside multi-byte
            // runes but stay exact for the ASCII code the rules match.
            self.col += 1;
        }
        Some(b)
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src`, returning tokens, allow directives, and test-region marks.
pub fn lex(src: &str) -> LexOutput {
    let mut out = LexOutput::default();
    let mut c = Cursor::new(src);

    while let Some(b) = c.peek(0) {
        let span = c.span();
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek(1) == Some(b'/') => line_comment(&mut c, &mut out),
            b'/' if c.peek(1) == Some(b'*') => block_comment(&mut c),
            b'"' => {
                string_literal(&mut c);
                push(&mut out, TokenKind::Literal, "\"..\"", span);
            }
            b'r' | b'b' if raw_or_byte_literal(&c) => {
                consume_prefixed_literal(&mut c);
                push(&mut out, TokenKind::Literal, "\"..\"", span);
            }
            b'\'' => char_or_lifetime(&mut c, &mut out, span),
            _ if is_ident_start(b) => {
                let mut text = String::new();
                while let Some(n) = c.peek(0) {
                    if is_ident_continue(n) {
                        text.push(c.bump().unwrap_or(b'_') as char);
                    } else {
                        break;
                    }
                }
                push(&mut out, TokenKind::Ident, &text, span);
            }
            _ if b.is_ascii_digit() => {
                // Swallow the whole numeric literal including `_`, `.`, type
                // suffixes, and exponent signs (`1e-3`).
                let mut text = String::new();
                let mut prev = b'0';
                while let Some(n) = c.peek(0) {
                    let take = n.is_ascii_alphanumeric()
                        || n == b'_'
                        || (n == b'.' && c.peek(1).is_none_or(|m| m != b'.'))
                        || ((n == b'+' || n == b'-') && (prev == b'e' || prev == b'E'));
                    if !take {
                        break;
                    }
                    prev = n;
                    text.push(c.bump().unwrap_or(b'0') as char);
                }
                push(&mut out, TokenKind::Number, &text, span);
            }
            _ => {
                let mut matched = false;
                for op in OPERATORS {
                    if c.starts_with(op) {
                        for _ in 0..op.len() {
                            c.bump();
                        }
                        push(&mut out, TokenKind::Punct, op, span);
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    c.bump();
                    push(&mut out, TokenKind::Punct, &(b as char).to_string(), span);
                }
            }
        }
    }

    out.in_test = mark_test_regions(&out.tokens);
    out
}

fn push(out: &mut LexOutput, kind: TokenKind, text: &str, span: Span) {
    out.tokens.push(Token {
        kind,
        text: text.to_string(),
        span,
    });
}

/// `//`-comment: records `lint:allow` directives from plain (non-doc) comments.
fn line_comment(c: &mut Cursor<'_>, out: &mut LexOutput) {
    let line = c.line;
    let mut text = String::new();
    while let Some(b) = c.peek(0) {
        if b == b'\n' {
            break;
        }
        text.push(c.bump().unwrap_or(b' ') as char);
    }
    // `///` and `//!` are docs; directive mentions there are prose, not policy.
    let is_doc = text.starts_with("///") || text.starts_with("//!");
    let body = text.trim_start_matches('/').trim();
    if !is_doc && body.starts_with("lint:allow") {
        parse_allow(body, line, out);
    }
}

fn parse_allow(body: &str, line: u32, out: &mut LexOutput) {
    let (file_level, rest) = if let Some(r) = body.strip_prefix("lint:allow-file") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("lint:allow") {
        (false, r)
    } else {
        return;
    };
    let inner = rest
        .trim()
        .strip_prefix('(')
        .and_then(|r| r.trim_end().strip_suffix(')'));
    let Some(inner) = inner else {
        out.bad_allows.push(BadAllow {
            line,
            problem: "expected `lint:allow(rule, reason)`".to_string(),
        });
        return;
    };
    let Some((rule, reason)) = inner.split_once(',') else {
        out.bad_allows.push(BadAllow {
            line,
            problem: "missing reason: `lint:allow(rule, reason)` requires one".to_string(),
        });
        return;
    };
    let rule = rule.trim();
    let reason = reason.trim().trim_matches('"').trim();
    if rule.is_empty() || reason.is_empty() {
        out.bad_allows.push(BadAllow {
            line,
            problem: "rule and reason must both be non-empty".to_string(),
        });
        return;
    }
    out.allows.push(AllowDirective {
        rule: rule.to_string(),
        reason: reason.to_string(),
        file_level,
        line,
    });
}

/// `/* .. */`, nesting like rustc.
fn block_comment(c: &mut Cursor<'_>) {
    c.bump();
    c.bump();
    let mut depth = 1usize;
    while depth > 0 {
        match (c.peek(0), c.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                c.bump();
                c.bump();
                depth += 1;
            }
            (Some(b'*'), Some(b'/')) => {
                c.bump();
                c.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                c.bump();
            }
            (None, _) => break,
        }
    }
}

/// `"…"` with escapes.
fn string_literal(c: &mut Cursor<'_>) {
    c.bump();
    while let Some(b) = c.bump() {
        match b {
            b'\\' => {
                c.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Does the cursor sit on `r"`, `r#`, `b"`, `b'`, `br`, `rb`-style literal?
fn raw_or_byte_literal(c: &Cursor<'_>) -> bool {
    match (c.peek(0), c.peek(1)) {
        (Some(b'r'), Some(b'"' | b'#')) => true,
        (Some(b'b'), Some(b'"' | b'\'')) => true,
        (Some(b'b'), Some(b'r')) => matches!(c.peek(2), Some(b'"' | b'#')),
        _ => false,
    }
}

/// Consumes `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#`.
fn consume_prefixed_literal(c: &mut Cursor<'_>) {
    let mut raw = false;
    while let Some(b) = c.peek(0) {
        match b {
            b'r' => {
                raw = true;
                c.bump();
            }
            b'b' => {
                c.bump();
            }
            _ => break,
        }
    }
    if raw {
        let mut hashes = 0usize;
        while c.peek(0) == Some(b'#') {
            hashes += 1;
            c.bump();
        }
        c.bump(); // opening quote
        loop {
            match c.bump() {
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && c.peek(0) == Some(b'#') {
                        seen += 1;
                        c.bump();
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
                None => break,
            }
        }
    } else {
        match c.peek(0) {
            Some(b'"') => string_literal(c),
            Some(b'\'') => {
                c.bump();
                while let Some(b) = c.bump() {
                    match b {
                        b'\\' => {
                            c.bump();
                        }
                        b'\'' => break,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime): after the quote, an
/// identifier that is *not* closed by another quote is a lifetime.
fn char_or_lifetime(c: &mut Cursor<'_>, out: &mut LexOutput, span: Span) {
    c.bump(); // the quote
    match c.peek(0) {
        Some(b'\\') => {
            // Escaped char literal: `'\n'`, `'\''`.
            c.bump();
            c.bump();
            if c.peek(0) == Some(b'\'') {
                c.bump();
            } else {
                // Multi-char escape (`'\u{1F600}'`): scan to the closing quote.
                while let Some(b) = c.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
            }
            push(out, TokenKind::Literal, "'.'", span);
        }
        Some(b) if is_ident_start(b) => {
            let mut text = String::from("'");
            while let Some(n) = c.peek(0) {
                if is_ident_continue(n) {
                    text.push(c.bump().unwrap_or(b'_') as char);
                } else {
                    break;
                }
            }
            if c.peek(0) == Some(b'\'') && text.chars().count() == 2 {
                c.bump();
                push(out, TokenKind::Literal, "'.'", span);
            } else {
                push(out, TokenKind::Lifetime, &text, span);
            }
        }
        Some(_) => {
            // `'x'` for non-ident x (e.g. `'/'`).
            c.bump();
            if c.peek(0) == Some(b'\'') {
                c.bump();
            }
            push(out, TokenKind::Literal, "'.'", span);
        }
        None => {}
    }
}

/// Marks tokens covered by a `#[cfg(test)]`-attributed item (the item's
/// attributes included). Handles stacked attributes and both `{}`-bodied and
/// `;`-terminated items.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut marks = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let attr_start = i;
            let Some((attr_end, is_test)) = scan_attribute(tokens, i) else {
                i += 1;
                continue;
            };
            if !is_test {
                i = attr_end;
                continue;
            }
            // Skip any further attributes between the cfg and the item.
            let mut j = attr_end;
            while j < tokens.len()
                && tokens[j].text == "#"
                && tokens.get(j + 1).is_some_and(|t| t.text == "[")
            {
                match scan_attribute(tokens, j) {
                    Some((end, _)) => j = end,
                    None => break,
                }
            }
            let item_end = scan_item(tokens, j);
            for m in marks.iter_mut().take(item_end).skip(attr_start) {
                *m = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    marks
}

/// From `#` at `start`, returns (index past the closing `]`, attr is a
/// `cfg(test)`-style gate). `#[cfg(not(test))]` guards *non*-test code and is
/// deliberately not a gate.
fn scan_attribute(tokens: &[Token], start: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut i = start + 1;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some((i + 1, saw_cfg && saw_test && !saw_not));
                }
            }
            "cfg" => saw_cfg = true,
            "test" => saw_test = true,
            "not" => saw_not = true,
            _ => {}
        }
        i += 1;
    }
    None
}

/// From the first token of an item, returns the index just past its end: the
/// matching `}` of its body, or the `;` that terminates it.
fn scan_item(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let toks = texts("let x = \"HashMap\"; // HashMap here\n/* HashSet */ y");
        assert_eq!(toks, vec!["let", "x", "=", "\"..\"", ";", "y"]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = texts("a /* outer /* inner */ still */ b");
        assert_eq!(toks, vec!["a", "b"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = texts(r####"x r#"embedded " quote"# y"####);
        assert_eq!(toks, vec!["x", "\"..\"", "y"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = texts("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(toks.contains(&"'a".to_string()));
        assert_eq!(toks.iter().filter(|t| *t == "'.'").count(), 2);
    }

    #[test]
    fn compound_operators_are_single_tokens() {
        let toks = texts("a += b; c::d; e -> f; g ..= h");
        for op in ["+=", "::", "->", "..="] {
            assert!(toks.contains(&op.to_string()), "missing {op}");
        }
    }

    #[test]
    fn numeric_literals_swallow_suffixes_and_exponents() {
        let toks = texts("1_000u64 + 1e-3 + 0xFFusize");
        assert_eq!(toks, vec!["1_000u64", "+", "1e-3", "+", "0xFFusize"]);
    }

    #[test]
    fn spans_are_one_based() {
        let out = lex("a\n  b");
        assert_eq!(out.tokens[0].span, Span { line: 1, col: 1 });
        assert_eq!(out.tokens[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn allow_directives_parse() {
        let out = lex("// lint:allow(panic, mutex poisoning implies a prior panic)\nx.unwrap()");
        assert_eq!(out.allows.len(), 1);
        assert_eq!(out.allows[0].rule, "panic");
        assert!(!out.allows[0].file_level);
        assert_eq!(out.allows[0].line, 1);
    }

    #[test]
    fn file_level_allow_and_quoted_reason() {
        let out = lex("// lint:allow-file(indexing, \"CSR hot loops\")\n");
        assert_eq!(out.allows.len(), 1);
        assert!(out.allows[0].file_level);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let out = lex("// lint:allow(panic)\n// lint:allow panic, reason\n");
        assert!(out.allows.is_empty());
        assert_eq!(out.bad_allows.len(), 2);
    }

    #[test]
    fn doc_comment_mentions_are_not_directives() {
        let out = lex("/// lint:allow(panic, prose)\n//! lint:allow(panic, prose)\n");
        assert!(out.allows.is_empty());
        assert!(out.bad_allows.is_empty());
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let out = lex("fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        let unwrap_idx = out
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("unwrap token");
        assert!(out.in_test[unwrap_idx]);
        let live_idx = out
            .tokens
            .iter()
            .position(|t| t.text == "live")
            .expect("live token");
        assert!(!out.in_test[live_idx]);
    }

    #[test]
    fn cfg_test_with_stacked_attributes_and_semicolon_items() {
        let out = lex("#[cfg(test)]\n#[allow(dead_code)]\nuse std::collections::HashMap;\nlive");
        let hm = out
            .tokens
            .iter()
            .position(|t| t.text == "HashMap")
            .expect("HashMap token");
        assert!(out.in_test[hm]);
        let live = out
            .tokens
            .iter()
            .position(|t| t.text == "live")
            .expect("live token");
        assert!(!out.in_test[live]);
    }

    #[test]
    fn cfg_all_test_is_marked() {
        let out = lex("#[cfg(all(test, feature = \"x\"))]\nmod t { bad }");
        let bad = out
            .tokens
            .iter()
            .position(|t| t.text == "bad")
            .expect("bad token");
        assert!(out.in_test[bad]);
    }
}
