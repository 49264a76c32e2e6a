//! A small two-pass MIPS assembler for platform firmware.
//!
//! Supports the instruction subset of [`CpuCore`](crate::CpuCore), labels,
//! `#` comments, decimal/hex immediates, the `.word` directive, and the
//! usual convenience pseudo-instructions (`li`, `la`, `move`, `nop`, `b`).
//!
//! # Example
//!
//! ```
//! let words = amsvp_vp::assemble(
//!     "li $t0, 42     # expands to two words
//!      break",
//! )?;
//! assert_eq!(words.len(), 3);
//! # Ok::<(), amsvp_vp::AsmError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn register(name: &str, line: usize) -> Result<u32, AsmError> {
    let name = name
        .strip_prefix('$')
        .ok_or_else(|| err(line, format!("expected register, found `{name}`")))?;
    if let Ok(n) = name.parse::<u32>() {
        if n < 32 {
            return Ok(n);
        }
        return Err(err(line, format!("register ${n} out of range")));
    }
    const NAMES: [&str; 32] = [
        "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
        "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "gp", "sp",
        "fp", "ra",
    ];
    NAMES
        .iter()
        .position(|&n| n == name)
        .map(|i| i as u32)
        .ok_or_else(|| err(line, format!("unknown register `${name}`")))
}

fn parse_int(text: &str, line: usize) -> Result<i64, AsmError> {
    let t = text.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse::<i64>()
    }
    .map_err(|_| err(line, format!("malformed integer `{text}`")))?;
    Ok(if neg { -v } else { v })
}

#[derive(Debug, Clone)]
struct Item {
    line: usize,
    label: Option<String>,
    mnemonic: String,
    operands: Vec<String>,
}

fn tokenize(source: &str) -> Result<Vec<Item>, AsmError> {
    let mut items = Vec::new();
    let mut pending_label: Option<String> = None;
    for (i, raw) in source.lines().enumerate() {
        let line = i + 1;
        let mut text = raw;
        if let Some(pos) = text.find('#') {
            text = &text[..pos];
        }
        let mut text = text.trim();
        while let Some(colon) = text.find(':') {
            let label = text[..colon].trim();
            if label.is_empty() || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(err(line, format!("bad label `{label}`")));
            }
            if pending_label.is_some() {
                return Err(err(line, "two labels without an instruction between"));
            }
            pending_label = Some(label.to_string());
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r),
            None => (text, ""),
        };
        let operands: Vec<String> = rest
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        items.push(Item {
            line,
            label: pending_label.take(),
            mnemonic: mnemonic.to_lowercase(),
            operands,
        });
    }
    if pending_label.is_some() {
        // Trailing label: attach it to a terminating nop so jumps to the
        // end of the program resolve.
        items.push(Item {
            line: source.lines().count(),
            label: pending_label,
            mnemonic: "nop".to_string(),
            operands: Vec::new(),
        });
    }
    Ok(items)
}

/// How many words an item expands to.
fn item_size(item: &Item) -> usize {
    match item.mnemonic.as_str() {
        // `li`/`la` conservatively take two words; single-word cases are
        // padded with a `nop`-equivalent second word only when needed —
        // we keep it simple and always emit the canonical lui/ori pair
        // unless the value fits the addiu form.
        "li" | "la" => 2,
        _ => 1,
    }
}

fn r_type(funct: u32, rs: u32, rt: u32, rd: u32, shamt: u32) -> u32 {
    (rs << 21) | (rt << 16) | (rd << 11) | (shamt << 6) | funct
}

fn i_type(op: u32, rs: u32, rt: u32, imm: u32) -> u32 {
    (op << 26) | (rs << 21) | (rt << 16) | (imm & 0xFFFF)
}

/// Assembles MIPS source into little-endian instruction words, origin 0.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (unknown mnemonic, bad
/// operand, undefined label, immediate out of range).
pub fn assemble(source: &str) -> Result<Vec<u32>, AsmError> {
    let items = tokenize(source)?;

    // Pass 1: label addresses.
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut addr = 0u32;
    for item in &items {
        if let Some(label) = &item.label {
            if labels.insert(label.clone(), addr).is_some() {
                return Err(err(item.line, format!("duplicate label `{label}`")));
            }
        }
        addr += 4 * item_size(item) as u32;
    }

    // Pass 2: encode.
    let mut words = Vec::new();
    for item in &items {
        encode(item, &labels, &mut words)?;
    }
    Ok(words)
}

fn lookup(labels: &HashMap<String, u32>, name: &str, line: usize) -> Result<u32, AsmError> {
    labels
        .get(name)
        .copied()
        .ok_or_else(|| err(line, format!("undefined label `{name}`")))
}

fn encode(
    item: &Item,
    labels: &HashMap<String, u32>,
    words: &mut Vec<u32>,
) -> Result<(), AsmError> {
    let line = item.line;
    let ops = &item.operands;
    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!(
                    "{} expects {n} operand(s), found {}",
                    item.mnemonic,
                    ops.len()
                ),
            ))
        }
    };
    let reg = |i: usize| register(&ops[i], line);
    // imm or label value
    let value = |i: usize| -> Result<i64, AsmError> {
        if let Ok(v) = parse_int(&ops[i], line) {
            Ok(v)
        } else if let Some(&a) = labels.get(ops[i].as_str()) {
            Ok(i64::from(a))
        } else {
            Err(err(line, format!("malformed value `{}`", ops[i])))
        }
    };
    let imm16 = |i: usize| -> Result<u32, AsmError> {
        let v = parse_int(&ops[i], line)?;
        if !(-(1 << 15)..(1 << 16)).contains(&v) {
            return Err(err(line, format!("immediate {v} out of 16-bit range")));
        }
        Ok((v as u32) & 0xFFFF)
    };
    // `offset(base)` memory operand
    let mem = |i: usize| -> Result<(u32, u32), AsmError> {
        let text = &ops[i];
        let open = text
            .find('(')
            .ok_or_else(|| err(line, format!("expected offset(base), found `{text}`")))?;
        let close = text
            .rfind(')')
            .ok_or_else(|| err(line, format!("missing `)` in `{text}`")))?;
        let off_text = text[..open].trim();
        let off = if off_text.is_empty() {
            0
        } else {
            parse_int(off_text, line)?
        };
        if !(-(1 << 15)..(1 << 15)).contains(&off) {
            return Err(err(line, format!("offset {off} out of range")));
        }
        let base = register(text[open + 1..close].trim(), line)?;
        Ok(((off as u32) & 0xFFFF, base))
    };
    let branch_off = |i: usize, here: u32| -> Result<u32, AsmError> {
        let target = lookup(labels, &ops[i], line)?;
        let diff = (i64::from(target) - i64::from(here) - 4) / 4;
        if !(-(1 << 15)..(1 << 15)).contains(&diff) {
            return Err(err(line, format!("branch to `{}` out of range", ops[i])));
        }
        Ok((diff as u32) & 0xFFFF)
    };
    let here = (words.len() * 4) as u32;

    match item.mnemonic.as_str() {
        ".word" => {
            need(1)?;
            words.push(value(0)? as u32);
        }
        "nop" => {
            need(0)?;
            words.push(0);
        }
        "break" => {
            need(0)?;
            words.push(0x0000_000D);
        }
        "move" => {
            need(2)?;
            words.push(r_type(0x21, reg(1)?, 0, reg(0)?, 0)); // addu rd, rs, $0
        }
        "li" | "la" => {
            need(2)?;
            let rt = reg(0)?;
            let v = value(1)? as u32;
            // Canonical pair; the first word is skippable when the upper
            // half is zero, but a fixed two-word expansion keeps label
            // addresses independent of operand values.
            words.push(i_type(0x0F, 0, 1, v >> 16)); // lui $at, hi
            if v >> 16 == 0 {
                // addiu sign-extends, so 0x8000–0xFFFF take the
                // zero-extending ori.
                let op = if v < 0x8000 { 0x09 } else { 0x0D };
                let last = words.len() - 1;
                words[last] = i_type(op, 0, rt, v & 0xFFFF); // addiu/ori rt,$0,lo
                words.push(0); // nop filler keeps the size fixed
            } else {
                words.push(i_type(0x0D, 1, rt, v & 0xFFFF)); // ori rt, $at, lo
            }
        }
        "lui" => {
            need(2)?;
            words.push(i_type(0x0F, 0, reg(0)?, imm16(1)?));
        }
        "addiu" | "addi" => {
            need(3)?;
            words.push(i_type(0x09, reg(1)?, reg(0)?, imm16(2)?));
        }
        "slti" => {
            need(3)?;
            words.push(i_type(0x0A, reg(1)?, reg(0)?, imm16(2)?));
        }
        "sltiu" => {
            need(3)?;
            words.push(i_type(0x0B, reg(1)?, reg(0)?, imm16(2)?));
        }
        "andi" => {
            need(3)?;
            words.push(i_type(0x0C, reg(1)?, reg(0)?, imm16(2)?));
        }
        "ori" => {
            need(3)?;
            words.push(i_type(0x0D, reg(1)?, reg(0)?, imm16(2)?));
        }
        "xori" => {
            need(3)?;
            words.push(i_type(0x0E, reg(1)?, reg(0)?, imm16(2)?));
        }
        "addu" | "add" | "subu" | "sub" | "and" | "or" | "xor" | "nor" | "slt" | "sltu" => {
            need(3)?;
            let funct = match item.mnemonic.as_str() {
                "add" => 0x20,
                "addu" => 0x21,
                "sub" => 0x22,
                "subu" => 0x23,
                "and" => 0x24,
                "or" => 0x25,
                "xor" => 0x26,
                "nor" => 0x27,
                "slt" => 0x2A,
                _ => 0x2B,
            };
            words.push(r_type(funct, reg(1)?, reg(2)?, reg(0)?, 0));
        }
        "sll" | "srl" | "sra" => {
            need(3)?;
            let funct = match item.mnemonic.as_str() {
                "sll" => 0x00,
                "srl" => 0x02,
                _ => 0x03,
            };
            let sh = parse_int(&ops[2], line)?;
            if !(0..32).contains(&sh) {
                return Err(err(line, format!("shift amount {sh} out of range")));
            }
            words.push(r_type(funct, 0, reg(1)?, reg(0)?, sh as u32));
        }
        "sllv" | "srlv" | "srav" => {
            need(3)?;
            let funct = match item.mnemonic.as_str() {
                "sllv" => 0x04,
                "srlv" => 0x06,
                _ => 0x07,
            };
            words.push(r_type(funct, reg(2)?, reg(1)?, reg(0)?, 0));
        }
        "mult" | "multu" | "div" | "divu" => {
            need(2)?;
            let funct = match item.mnemonic.as_str() {
                "mult" => 0x18,
                "multu" => 0x19,
                "div" => 0x1A,
                _ => 0x1B,
            };
            words.push(r_type(funct, reg(0)?, reg(1)?, 0, 0));
        }
        "mfhi" => {
            need(1)?;
            words.push(r_type(0x10, 0, 0, reg(0)?, 0));
        }
        "mflo" => {
            need(1)?;
            words.push(r_type(0x12, 0, 0, reg(0)?, 0));
        }
        "jr" => {
            need(1)?;
            words.push(r_type(0x08, reg(0)?, 0, 0, 0));
        }
        "jalr" => {
            need(2)?;
            words.push(r_type(0x09, reg(1)?, 0, reg(0)?, 0));
        }
        "lw" | "sw" | "lb" | "lbu" | "lh" | "lhu" | "sb" | "sh" => {
            need(2)?;
            let op = match item.mnemonic.as_str() {
                "lb" => 0x20,
                "lh" => 0x21,
                "lw" => 0x23,
                "lbu" => 0x24,
                "lhu" => 0x25,
                "sb" => 0x28,
                "sh" => 0x29,
                _ => 0x2B,
            };
            let (off, base) = mem(1)?;
            words.push(i_type(op, base, reg(0)?, off));
        }
        "beq" | "bne" => {
            need(3)?;
            let op = if item.mnemonic == "beq" { 0x04 } else { 0x05 };
            words.push(i_type(op, reg(0)?, reg(1)?, branch_off(2, here)?));
        }
        "b" => {
            need(1)?;
            words.push(i_type(0x04, 0, 0, branch_off(0, here)?));
        }
        "blez" | "bgtz" => {
            need(2)?;
            let op = if item.mnemonic == "blez" { 0x06 } else { 0x07 };
            words.push(i_type(op, reg(0)?, 0, branch_off(1, here)?));
        }
        "bltz" | "bgez" => {
            need(2)?;
            let rt = if item.mnemonic == "bltz" { 0 } else { 1 };
            words.push(i_type(0x01, reg(0)?, rt, branch_off(1, here)?));
        }
        "j" | "jal" => {
            need(1)?;
            let op = if item.mnemonic == "j" { 0x02 } else { 0x03 };
            let target = lookup(labels, &ops[0], line)?;
            words.push((op << 26) | ((target >> 2) & 0x03FF_FFFF));
        }
        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_r_and_i_types() {
        let w = assemble("addu $t2, $t0, $t1").unwrap();
        assert_eq!(w, vec![(8 << 21) | (9 << 16) | (10 << 11) | 0x21]);
        let w = assemble("addiu $t0, $zero, -1").unwrap();
        assert_eq!(w, vec![(0x09 << 26) | (8 << 16) | 0xFFFF]);
        let w = assemble("lw $t0, 8($sp)").unwrap();
        assert_eq!(w, vec![(0x23 << 26) | (29 << 21) | (8 << 16) | 8]);
    }

    #[test]
    fn li_expands_to_fixed_two_words() {
        let small = assemble("li $t0, 5").unwrap();
        assert_eq!(small.len(), 2);
        let big = assemble("li $t0, 0x12345678").unwrap();
        assert_eq!(big.len(), 2);
        assert_eq!(big[0], (0x0F << 26) | (1 << 16) | 0x1234);
        assert_eq!(big[1], (0x0D << 26) | (1 << 21) | (8 << 16) | 0x5678);
    }

    #[test]
    fn labels_and_branches() {
        let w = assemble(
            "start:
               beq $zero, $zero, start
               b start",
        )
        .unwrap();
        // First branch: offset −1 (back to itself).
        assert_eq!(w[0] & 0xFFFF, 0xFFFF);
        // Second branch at address 4 → offset −2.
        assert_eq!(w[1] & 0xFFFF, 0xFFFE);
    }

    #[test]
    fn forward_labels_and_jumps() {
        let w = assemble(
            "j end
             nop
           end:
             break",
        )
        .unwrap();
        assert_eq!(w[0], (0x02 << 26) | 2, "jump to word 2 (byte 8)");
        assert_eq!(w[2], 0x0000_000D);
    }

    #[test]
    fn la_resolves_label_addresses() {
        let w = assemble(
            "la $t0, data
             break
           data:
             .word 0xCAFEBABE",
        )
        .unwrap();
        // data is at word 3 (la = 2 words + break) → byte 12.
        assert_eq!(w.len(), 4);
        assert_eq!(w[3], 0xCAFE_BABE);
        // addiu $t0, $zero, 12 (upper half zero → addiu form + nop)
        assert_eq!(w[0], (0x09 << 26) | (8 << 16) | 12);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(assemble("frob $t0").unwrap_err().message.contains("frob"));
        assert!(assemble("addu $t0, $t1")
            .unwrap_err()
            .message
            .contains("expects 3"));
        assert!(assemble("li $q0, 5").unwrap_err().message.contains("$q0"));
        assert!(assemble("beq $t0, $t1, nowhere")
            .unwrap_err()
            .message
            .contains("nowhere"));
        assert!(assemble("addiu $t0, $zero, 70000")
            .unwrap_err()
            .message
            .contains("16-bit"));
        let dup = assemble("x: nop\nx: nop").unwrap_err();
        assert!(dup.message.contains("duplicate"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let w = assemble(
            "# full-line comment

             nop   # trailing comment
             ",
        )
        .unwrap();
        assert_eq!(w, vec![0]);
    }
}
