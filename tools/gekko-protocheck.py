#!/usr/bin/env python3
"""gekko-protocheck: the RPC protocol model, machine-checked.

Run as `ctest -L lint` (or directly: tools/gekko-protocheck.py
[repo-root]; `--self-test` runs the negative suite). Exit 0 = model
consistent, 1 = violations (printed one per line), 2 = usage/parse
error.

The protocol is spread across four places that must agree: the RpcId
enum and its switches (src/proto/messages.h), the daemon handler
registrations (src/daemon/daemon.cpp), the client call sites
(src/client/, src/rpc/), and the codec round-trip table
(src/proto/codec_table.h) that the fuzz harnesses and corpus-replay
tests execute. A new RPC wired into some but not all of them compiles
fine and fails at runtime — or worse, silently inherits a retry policy
or ships a decoder no fuzzer ever sees. This checker parses all four
and fails the lint gate on any disagreement:

rpc-name        every RpcId enumerator has `case RpcId::x: return "x";`
                in rpc_name(), and the literal equals the enumerator.
retry-class     every enumerator is classified explicitly in
                rpc_retry_class() as idempotent / non_idempotent /
                probe. The default: clause is not classification — an
                RPC must state its replay semantics where reviewers
                see it.
dispatch-class  every enumerator is classified explicitly in
                rpc_dispatch_class() as inline_delivery / pooled: where
                the daemon runs its handler is a reviewed decision
                (an inline handler that waits on the fabric stalls a
                delivery thread), never a fallthrough.
handler         every enumerator is registered exactly once in
                register_handlers_ via `bind(RpcId::x, "x", ...)`,
                with the wire-name literal matching; no bind() for an
                id outside the enum.
codec-table     every enumerator has exactly one kCodecTable row; the
                row's rpc literal matches; each non-empty codec name
                is backed by &codec_round_trip<SameName> and each
                empty one by nullptr.
codec-coverage  every struct in messages.h that has both decode() and
                encode() appears in kCodecTable (or kExtraCodecs) —
                i.e. every wire decoder is reachable from the fuzz
                harness and the corpus replay test.
call-site       every enumerator has at least one client call site
                (`to_wire(RpcId::x)` under src/client/ or src/rpc/):
                an RPC nobody can send is dead protocol surface.
corpus          every non-empty codec in the table has at least one
                committed seed under fuzz/corpus/proto/ (snake_case of
                the codec struct name), so `ctest -L fuzz` and the
                corpus replay test start from a valid instance of it.
test-ref        every enumerator is referenced by the test tree —
                its wire name or one of its codec structs appears in
                tests/*.cpp.
"""

from __future__ import annotations

import os
import re
import sys

MESSAGES = "src/proto/messages.h"
CODEC_TABLE = "src/proto/codec_table.h"
DAEMON = "src/daemon/daemon.cpp"
CALL_SITE_DIRS = ("src/client", "src/rpc")
TESTS_DIR = "tests"
CORPUS_DIR = "fuzz/corpus/proto"

RETRY_CLASSES = ("idempotent", "non_idempotent", "probe")
DISPATCH_CLASSES = ("inline_delivery", "pooled")


def snake_case(name: str) -> str:
    """CamelCase codec struct -> snake_case corpus stem (ChunkIoRequest
    -> chunk_io_request)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def brace_body(text: str, open_pos: int) -> str:
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i]
    return text[open_pos + 1:]


class Tree:
    """The file set the checks run against. Real runs read from disk;
    the self-test substitutes mutated copies without touching disk."""

    def __init__(self, root: str):
        self.root = root
        self.files: dict[str, str] = {}

    def read(self, rel: str) -> str | None:
        if rel in self.files:
            return self.files[rel]
        try:
            with open(os.path.join(self.root, rel), encoding="utf-8",
                      errors="replace") as f:
                text = f.read()
        except OSError:
            return None
        self.files[rel] = text
        return text

    def walk_sources(self, rel_dir: str) -> list[str]:
        out = []
        base = os.path.join(self.root, rel_dir)
        for dirpath, _dirs, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          self.root)
                    out.append(rel.replace(os.sep, "/"))
        return out

    def corpus_files(self) -> list[str]:
        try:
            return sorted(os.listdir(os.path.join(self.root, CORPUS_DIR)))
        except OSError:
            return []


def parse_enum(tree: Tree, errors: list[str]) -> dict[str, int]:
    text = tree.read(MESSAGES)
    if text is None:
        errors.append(f"{MESSAGES}: unreadable")
        return {}
    m = re.search(r"enum\s+class\s+RpcId\s*:\s*std::uint16_t\s*\{", text)
    if not m:
        errors.append(f"{MESSAGES}: enum class RpcId not found")
        return {}
    body = strip_comments(brace_body(text, m.end() - 1))
    ids: dict[str, int] = {}
    for entry in body.split(","):
        entry = entry.strip()
        if not entry:
            continue
        em = re.match(r"(\w+)\s*=\s*(\d+)$", entry)
        if not em:
            errors.append(f"{MESSAGES}: unparseable RpcId entry '{entry}' "
                          f"(expected `name = N`)")
            continue
        name, value = em.group(1), int(em.group(2))
        if name in ids:
            errors.append(f"{MESSAGES}: duplicate RpcId enumerator {name}")
        if value in ids.values():
            errors.append(f"{MESSAGES}: RpcId::{name} reuses wire value "
                          f"{value}")
        ids[name] = value
    if not ids:
        errors.append(f"{MESSAGES}: RpcId enum parsed empty")
    return ids


def switch_body(text: str, fn_name: str) -> str | None:
    m = re.search(re.escape(fn_name) + r"\s*\([^)]*\)\s*\{", text)
    if not m:
        return None
    return brace_body(text, m.end() - 1)


def check_rpc_name(tree: Tree, ids: dict[str, int],
                   errors: list[str]) -> None:
    text = tree.read(MESSAGES) or ""
    body = switch_body(text, "inline std::string rpc_name")
    if body is None:
        errors.append(f"{MESSAGES}: rpc-name: rpc_name() not found")
        return
    cases = dict(re.findall(
        r'case\s+RpcId::(\w+)\s*:\s*return\s+"(\w*)"\s*;', body))
    for name in ids:
        if name not in cases:
            errors.append(f"{MESSAGES}: rpc-name: RpcId::{name} has no "
                          f"case in rpc_name()")
        elif cases[name] != name:
            errors.append(f"{MESSAGES}: rpc-name: rpc_name(RpcId::{name}) "
                          f"returns \"{cases[name]}\" — wire names must "
                          f"equal the enumerator")
    for name in cases:
        if name not in ids:
            errors.append(f"{MESSAGES}: rpc-name: case RpcId::{name} is "
                          f"not an RpcId enumerator")


def check_class_switch(tree: Tree, ids: dict[str, int], errors: list[str],
                       rule: str, fn: str, enum: str,
                       classes: tuple[str, ...], what: str) -> None:
    """Every enumerator has `case RpcId::x: return <enum>::<class>;` in
    the switch of `fn`, with <class> one of `classes`."""
    text = tree.read(MESSAGES) or ""
    body = switch_body(text, f"inline constexpr {enum} {fn}")
    if body is None:
        errors.append(f"{MESSAGES}: {rule}: {fn}() not found")
        return
    cases = dict(re.findall(
        r"case\s+RpcId::(\w+)\s*:\s*return\s+" + re.escape(enum) +
        r"::(\w+)\s*;", body))
    for name in ids:
        if name not in cases:
            errors.append(
                f"{MESSAGES}: {rule}: RpcId::{name} is not classified "
                f"in {fn}() — every RPC must state its {what} explicitly "
                f"({' / '.join(classes)})")
        elif cases[name] not in classes:
            errors.append(f"{MESSAGES}: {rule}: RpcId::{name} maps to "
                          f"unknown class {enum}::{cases[name]}")
    for name in cases:
        if name not in ids:
            errors.append(f"{MESSAGES}: {rule}: case RpcId::{name} is "
                          f"not an RpcId enumerator")


def check_retry_class(tree: Tree, ids: dict[str, int],
                      errors: list[str]) -> None:
    check_class_switch(tree, ids, errors, "retry-class", "rpc_retry_class",
                       "RpcRetryClass", RETRY_CLASSES, "replay semantics")


def check_dispatch_class(tree: Tree, ids: dict[str, int],
                         errors: list[str]) -> None:
    check_class_switch(tree, ids, errors, "dispatch-class",
                       "rpc_dispatch_class", "rpc::Dispatch",
                       DISPATCH_CLASSES, "handler placement")


def check_handlers(tree: Tree, ids: dict[str, int],
                   errors: list[str]) -> None:
    text = tree.read(DAEMON)
    if text is None:
        errors.append(f"{DAEMON}: unreadable")
        return
    binds = re.findall(r'bind\(\s*RpcId::(\w+)\s*,\s*"(\w+)"',
                       strip_comments(text))
    seen: dict[str, str] = {}
    for name, wire in binds:
        if name in seen:
            errors.append(f"{DAEMON}: handler: RpcId::{name} is bound "
                          f"twice in register_handlers_")
        seen[name] = wire
        if name not in ids:
            errors.append(f"{DAEMON}: handler: bind() for RpcId::{name}, "
                          f"which is not an RpcId enumerator")
        elif wire != name:
            errors.append(f"{DAEMON}: handler: RpcId::{name} bound with "
                          f"wire name \"{wire}\" — must match the "
                          f"enumerator")
    for name in ids:
        if name not in seen:
            errors.append(
                f"{DAEMON}: handler: RpcId::{name} has no bind() in "
                f"register_handlers_ — requests for it hit the daemon's "
                f"unknown-rpc path")


ROW = re.compile(
    r"\{\s*RpcId::(\w+)\s*,\s*\"(\w+)\"\s*,\s*\"(\w*)\"\s*,\s*\"(\w*)\"\s*,"
    r"\s*(nullptr|&codec_round_trip<(\w+)>)\s*,"
    r"\s*(nullptr|&codec_round_trip<(\w+)>)\s*\}")


def parse_codec_table(tree: Tree, errors: list[str]) -> list[tuple]:
    text = tree.read(CODEC_TABLE)
    if text is None:
        errors.append(f"{CODEC_TABLE}: unreadable")
        return []
    m = re.search(r"kCodecTable\[\]\s*=\s*\{", text)
    if not m:
        errors.append(f"{CODEC_TABLE}: codec-table: kCodecTable not found")
        return []
    body = strip_comments(brace_body(text, m.end() - 1))
    rows = []
    for rm in ROW.finditer(body):
        rows.append((rm.group(1), rm.group(2), rm.group(3), rm.group(4),
                     rm.group(6), rm.group(8)))
    if not rows:
        errors.append(f"{CODEC_TABLE}: codec-table: no rows parsed from "
                      f"kCodecTable")
    return rows


def parse_extra_codecs(tree: Tree) -> list[str]:
    text = tree.read(CODEC_TABLE) or ""
    m = re.search(r"kExtraCodecs\[\]\s*=\s*\{", text)
    if not m:
        return []
    body = strip_comments(brace_body(text, m.end() - 1))
    return re.findall(r"\{\s*\"(\w+)\"\s*,\s*&codec_round_trip<(\w+)>",
                      body) and \
        [n for n, _ in re.findall(
            r"\{\s*\"(\w+)\"\s*,\s*&codec_round_trip<(\w+)>", body)]


def check_codec_table(rows: list[tuple], ids: dict[str, int],
                      errors: list[str]) -> None:
    seen: set[str] = set()
    for name, rpc, req, resp, req_fn, resp_fn in rows:
        if name in seen:
            errors.append(f"{CODEC_TABLE}: codec-table: duplicate row for "
                          f"RpcId::{name}")
        seen.add(name)
        if name not in ids:
            errors.append(f"{CODEC_TABLE}: codec-table: row for "
                          f"RpcId::{name}, which is not an RpcId enumerator")
        if rpc != name:
            errors.append(f"{CODEC_TABLE}: codec-table: RpcId::{name} row "
                          f"carries rpc literal \"{rpc}\" — must match the "
                          f"enumerator")
        for kind, declared, fn in (("request", req, req_fn),
                                   ("response", resp, resp_fn)):
            if declared == "" and fn is not None:
                errors.append(
                    f"{CODEC_TABLE}: codec-table: RpcId::{name} {kind} is "
                    f"declared empty but has a round-trip fn for {fn}")
            if declared != "" and fn is None:
                errors.append(
                    f"{CODEC_TABLE}: codec-table: RpcId::{name} {kind} "
                    f"codec {declared} has nullptr instead of "
                    f"&codec_round_trip<{declared}> — the fuzz harness "
                    f"would silently skip it")
            if declared != "" and fn is not None and fn != declared:
                errors.append(
                    f"{CODEC_TABLE}: codec-table: RpcId::{name} {kind} "
                    f"declares {declared} but round-trips {fn}")
    for name in ids:
        if name not in seen:
            errors.append(
                f"{CODEC_TABLE}: codec-table: RpcId::{name} has no "
                f"kCodecTable row — its payload codecs are invisible to "
                f"the fuzz harness and the corpus replay test")


def check_codec_coverage(tree: Tree, rows: list[tuple],
                         errors: list[str]) -> None:
    text = tree.read(MESSAGES) or ""
    stripped = strip_comments(text)
    covered = {c for row in rows for c in (row[4], row[5]) if c}
    covered.update(parse_extra_codecs(tree))
    for sm in re.finditer(r"struct\s+(\w+)\s*\{", stripped):
        struct_name = sm.group(1)
        body = brace_body(stripped, sm.end() - 1)
        if re.search(r"\bdecode\s*\(", body) and \
                re.search(r"\bencode\s*\(", body):
            if struct_name not in covered:
                errors.append(
                    f"{MESSAGES}: codec-coverage: struct {struct_name} has "
                    f"decode()/encode() but no kCodecTable / kExtraCodecs "
                    f"entry — no fuzz target or round-trip check sees it")


def check_call_sites(tree: Tree, ids: dict[str, int],
                     errors: list[str]) -> None:
    used: set[str] = set()
    for rel_dir in CALL_SITE_DIRS:
        for rel in tree.walk_sources(rel_dir):
            text = tree.read(rel) or ""
            used.update(re.findall(r"to_wire\(\s*RpcId::(\w+)\s*\)",
                                   strip_comments(text)))
    for name in ids:
        if name not in used:
            errors.append(
                f"{MESSAGES}: call-site: RpcId::{name} is never sent — no "
                f"to_wire(RpcId::{name}) under "
                f"{' or '.join(CALL_SITE_DIRS)}")
    for name in used:
        if name not in ids:
            errors.append(f"call-site: to_wire(RpcId::{name}) used but "
                          f"{name} is not an RpcId enumerator")


def check_corpus(tree: Tree, rows: list[tuple], errors: list[str]) -> None:
    corpus = tree.corpus_files()
    if not corpus:
        errors.append(f"{CORPUS_DIR}: corpus: empty or missing — run "
                      f"gekko_gen_corpus and commit the seeds")
        return
    joined = "\n".join(corpus)
    for name, _rpc, req, resp, _rf, _sf in rows:
        for kind, codec in (("request", req), ("response", resp)):
            if not codec:
                continue
            # Seeds are named after the rpc (stat_request.bin) or,
            # for shared codecs, after the struct (path_request.bin).
            if f"{name}_{kind}" not in joined and \
                    snake_case(codec) not in joined:
                errors.append(
                    f"{CORPUS_DIR}: corpus: no seed for the {name} "
                    f"{kind} ({codec}) — expected a file matching "
                    f"'{name}_{kind}' or '{snake_case(codec)}'")


def check_test_refs(tree: Tree, ids: dict[str, int], rows: list[tuple],
                    errors: list[str]) -> None:
    codecs_of = {name: [c for c in (req, resp) if c]
                 for name, _rpc, req, resp, _rf, _sf in rows}
    blob = "\n".join(tree.read(rel) or ""
                     for rel in tree.walk_sources(TESTS_DIR))
    for name in ids:
        tokens = [name] + codecs_of.get(name, [])
        if not any(re.search(r"\b" + re.escape(t) + r"\b", blob)
                   for t in tokens):
            errors.append(
                f"{TESTS_DIR}: test-ref: RpcId::{name} is unreferenced by "
                f"the test tree (neither \"{name}\" nor its codec structs "
                f"appear in tests/*.cpp)")


def run_checks(tree: Tree) -> list[str]:
    errors: list[str] = []
    ids = parse_enum(tree, errors)
    if not ids:
        return errors
    check_rpc_name(tree, ids, errors)
    check_retry_class(tree, ids, errors)
    check_dispatch_class(tree, ids, errors)
    check_handlers(tree, ids, errors)
    rows = parse_codec_table(tree, errors)
    check_codec_table(rows, ids, errors)
    check_codec_coverage(tree, rows, errors)
    check_call_sites(tree, ids, errors)
    check_corpus(tree, rows, errors)
    check_test_refs(tree, ids, rows, errors)
    return errors


# ---------------------------------------------------------------- self-test

def self_test(root: str) -> int:
    """Negative suite: mutate the real tree in memory, one defect at a
    time, and require the matching check to fire. A checker that cannot
    see planted defects is worse than none — it certifies."""
    base = Tree(root)
    clean = run_checks(base)
    if clean:
        print("self-test: baseline tree is not clean; fix these first:")
        for e in clean:
            print(f"  {e}")
        return 1

    messages = base.read(MESSAGES)
    daemon = base.read(DAEMON)
    table = base.read(CODEC_TABLE)
    assert messages and daemon and table

    def mutated(rel: str, old: str, new: str, count: int = 1) -> Tree:
        t = Tree(root)
        text = t.read(rel)
        assert text is not None and old in text, \
            f"self-test fixture drift: {old!r} not in {rel}"
        t.files[rel] = text.replace(old, new, count)
        return t

    cases = [
        ("rpc-name case removed",
         mutated(MESSAGES, 'case RpcId::stat: return "stat";', ""),
         "rpc-name: RpcId::stat has no case"),
        ("rpc-name literal mismatched",
         mutated(MESSAGES, 'case RpcId::stat: return "stat";',
                 'case RpcId::stat: return "status";'),
         'rpc-name: rpc_name(RpcId::stat) returns "status"'),
        ("retry classification removed",
         mutated(MESSAGES,
                 "case RpcId::read_chunks: return RpcRetryClass::idempotent;",
                 ""),
         "retry-class: RpcId::read_chunks is not classified"),
        ("dispatch classification removed",
         mutated(MESSAGES,
                 "case RpcId::stat: return rpc::Dispatch::inline_delivery;",
                 ""),
         "dispatch-class: RpcId::stat is not classified"),
        ("dispatch class misspelled",
         mutated(MESSAGES,
                 "case RpcId::read_chunks: return rpc::Dispatch::pooled;",
                 "case RpcId::read_chunks: return rpc::Dispatch::progress;"),
         "dispatch-class: RpcId::read_chunks maps to unknown class"),
        ("handler registration removed",
         mutated(DAEMON, 'bind(RpcId::heartbeat, "heartbeat", ', "skip("),
         "handler: RpcId::heartbeat has no bind()"),
        ("handler wire name mismatched",
         mutated(DAEMON, 'bind(RpcId::heartbeat, "heartbeat"',
                 'bind(RpcId::heartbeat, "heart_beat"'),
         'handler: RpcId::heartbeat bound with wire name "heart_beat"'),
        ("codec table row removed",
         mutated(TABLE_ROW_FILE, TABLE_ROW_OLD, ""),
         "codec-table: RpcId::get_dirents has no kCodecTable row"),
        ("new rpc wired nowhere",
         mutated(MESSAGES, "batch_remove = 17,",
                 "batch_remove = 17,\n  evict_chunks = 18,"),
         "retry-class: RpcId::evict_chunks is not classified"),
        ("decoder outside the table",
         mutated(MESSAGES, "enum class RpcRetryClass",
                 "struct OrphanCodec {\n"
                 "  static Result<OrphanCodec> decode(std::string_view);\n"
                 "  std::string encode() const;\n"
                 "};\n\nenum class RpcRetryClass"),
         "codec-coverage: struct OrphanCodec"),
    ]
    failures = 0
    for label, tree, expect in cases:
        errors = run_checks(tree)
        if any(expect in e for e in errors):
            print(f"self-test: ok: {label}")
        else:
            failures += 1
            print(f"self-test: MISSED: {label} (expected an error "
                  f"containing {expect!r}; got {len(errors)} others)")
            for e in errors[:5]:
                print(f"    {e}")
    if failures:
        print(f"self-test: {failures} planted defect(s) went undetected")
        return 1
    print(f"self-test: all {len(cases)} planted defects detected")
    return 0


# The get_dirents table row spans one line in the current formatting;
# keep the fixture text in one place so drift fails loudly.
TABLE_ROW_FILE = CODEC_TABLE
TABLE_ROW_OLD = (
    '{RpcId::get_dirents,       "get_dirents",       "DirentsRequest",     '
    '  "DirentsResponse",       &codec_round_trip<DirentsRequest>,       '
    '&codec_round_trip<DirentsResponse>},')


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--self-test"]
    root = os.path.abspath(args[0]) if args else os.getcwd()
    if not os.path.isfile(os.path.join(root, MESSAGES)):
        print(f"gekko-protocheck: {MESSAGES} not found under {root}",
              file=sys.stderr)
        return 2
    if "--self-test" in argv[1:]:
        return self_test(root)
    errors = run_checks(Tree(root))
    for e in errors:
        print(e)
    print(f"gekko-protocheck: {len(errors)} violation(s)", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
