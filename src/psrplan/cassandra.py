"""Parser for Cassandra-format ``.POMDP`` model files.

Supported grammar: ``discount``/``values``/``states``/``actions``/
``observations`` preamble (counts or name lists), ``start`` belief
(vector, ``uniform``, single state, ``include``/``exclude`` lists), and
``T:``/``O:``/``R:`` entries with ``*`` wildcards, row/matrix
continuation lines and the ``identity``/``uniform`` keyword matrices.
``values: cost`` is rejected, and so is a second declaration of any
preamble keyword or of ``start``, and a declared name that no slot could
refer to: ``*`` or one with a ``:`` in it.  A line that opens with a word
(letters as ``str.isalpha`` reads them) and a colon must open a
statement: any other ``word:`` is an unrecognized directive, wherever it
stands.  ``include`` and ``exclude`` open a start list only as whole
words, so ``start: excluded`` names a state.  An index, a lone start
token or a count of more than 4,300 digits, more than ``int`` reads by
default, is a ParseError at its line.  So is a model whose T, O or R
table, or whose names at ``NAME_ENTRIES`` each, would hold more than
``TABLE_BUDGET`` entries, at the declaration or ``R:`` entry that takes
it past, before any name list or table is built; a count with more
digits than the budget, leading zeros aside, is refused before ``int``
reads it.

The file becomes a statement table in a few list comprehensions over its
lines: each statement's keyword, ``:`` fields, body lines and line
number; a statement is an index into it.  Each kind has one name map,
and only its ``resolve`` reads a ``*`` slot.  Entries apply in file
order: a later entry overwrites what an earlier one set, whether either
names a ``*`` or not.  Consecutive one-line T/O/R bodies under one
keyword and slot count form a run.  A run of ``_SHORT_RUN`` or more
entries is read by one ``np.loadtxt`` call and written by one
fancy-index assignment per stretch of entries whose slots are all names
or plain indices, keeping the last of the entries that name one target;
an entry with another slot (``*``, an index such as ``01``) is applied
on its own from its run's row.  Every other entry (one of a shorter
run, a longer or keyword body, a run that does not read as finite rows
of the right width) is applied on its own, its body read from its own
tokens with Python's ``float``.  Both convert with CPython's correctly
rounded ``PyOS_string_to_double``; a form only ``float`` reads, such as
``0.2_5`` or non-ASCII digits, sends its run back to ``float``.  A
non-finite number (``nan``, ``inf``, or an overflow such as ``1e999``)
is a ParseError.

Rewards become part of the observable signal: each raw value
R(s, a, s', o) is binned into a finite set, affinely normalized into
[0, 1], and attached to the observation. Because the signal kernel
conditions on the arriving state only, a file whose reward varies with
the departing state (on reachable triples) is rejected.  The raw reward
table gets a departing-state axis only when some ``R:`` entry names a
departing state; otherwise it holds A·n·O numbers, not A·n²·O.
"""

import itertools
import math
import re

import numpy as np

from .errors import ParseError, UnsupportedConstructError, ValidationError
from .model import PomdpModel, check_rows, is_distribution

_KEYWORDS = {"discount", "values", "states", "actions", "observations", "start", "T", "O", "R"}
_ENTRY_CODES = {"T": 0, "O": 1, "R": 2}  # the entry keywords, by run key modulo 3
_MATRIX_WORDS = {"identity", "uniform"}
_HEAD = re.compile(r"([^\W\d_]+)\s*(:?)\s*(.*)")  # a word: letters as str.isalpha reads them
# A T/O/R head whose every ':' field is one token, then the body's first
# line, if any, with no ':' in it: ``_head`` reads such a line the same way.
_ENTRY_HEAD = re.compile(r"([TOR])\s*:\s*([^\s:]+(?:\s*:\s*[^\s:]+)*)(?:\s+([^:]+))?")
_START_MODE = re.compile(r"^(include|exclude)\b\s*:?\s*(.*)$")
_INDEX = re.compile(r"\d+")
_ALL = slice(None)  # a '*' slot
_UNKNOWN = -1  # what a run reads for a token ``_NameSpace.lookup`` does not map

DEFAULT_REWARD_CAP = 64
# The most entries a dense table may hold: A·n² for T, A·n·O for O and,
# when an R entry names a departing state, A·n²·O for R; 2**27 float64
# entries are 1 GiB.
TABLE_BUDGET = 2**27
# What a declared name costs against TABLE_BUDGET: the name and its two
# lookup entries hold 244-288 bytes, about 32 float64 entries.
NAME_ENTRIES = 32
REWARD_SPREAD_TOL = 1e-12  # the most a reachable reward may vary with the departing state
# A shorter run is applied entry by entry.  At 4 numbers a row, writing a
# run by columns costs about 48 µs plus 1.9 µs per entry, and reading an
# entry from its tokens 5.6 µs; columns win from about 14 entries at 4
# numbers a row, 8 at 30 and 3 at 300 (2-core Xeon).  The benchmark's
# 3-6 state files parse fastest at 16.
_SHORT_RUN = 16
# CPython's default limit on the digits ``int`` converts; a longer index,
# start token or count is refused before ``int`` reads it
_MAX_DIGITS = 4_300


def _head(line, lineno):
    """``(keyword, slots, text)`` for a statement's first line, as
    ``_ENTRY_HEAD`` gives them: a T/O/R entry's ``:`` fields as one string
    of tokens and colons, and ``text`` the rest of the line; None for a
    continuation line."""
    word, colon, rest = _HEAD.match(line).groups()  # line opens with a letter
    if word not in _KEYWORDS:
        if colon:
            raise ParseError(f"unrecognized directive '{word}'", lineno)
        return None
    if word not in _ENTRY_CODES:
        return word, "", rest
    if not colon:
        raise ParseError(f"expected ':' after {word}", lineno)
    *parts, last = rest.split(":")
    slots = []
    for part in parts:
        fields = part.split()
        if not fields:
            raise ParseError(f"empty field in {word} entry", lineno)
        if len(fields) != 1:
            raise ParseError(f"unexpected token '{fields[1]}' in {word} entry", lineno)
        slots.append(fields[0])
    fields = last.split(None, 1)
    if not fields:
        raise ParseError(f"empty field in {word} entry", lineno)
    slots.append(fields[0])
    return word, " : ".join(slots), fields[1] if len(fields) > 1 else ""


class _Statements:
    """A file's statements in file order, as columns; statement i is the
    index i into them.

    ``lines`` are the file's non-blank lines with comments and surrounding
    whitespace stripped, and ``numbers`` their 1-based line numbers.
    Statement i opens at ``lines[at[i]]`` with ``words[i]`` and, for a
    T/O/R entry, the ``:`` fields ``heads[i]``.  Once the columns hold
    them, that line keeps only the rest of it, the first line of the
    statement's body, which runs up to ``lines[at[i + 1]]`` (``at`` ends
    with ``len(lines)``); ``lengths[i]`` counts the body's non-empty
    lines.  ``keys[i]`` is an entry's run key, one number per keyword and
    slot count, and -1 for the preamble.  Value text stays as whole lines
    until an entry is applied, so a large file never holds all of its
    number tokens at once.
    """

    def __init__(self, text):
        lines = text.splitlines()
        if "#" in text:
            lines = [line.split("#", 1)[0] for line in lines]
        lines = [line.strip() for line in lines]
        numbers = [no for no, line in enumerate(lines, 1) if line]
        lines = [line for line in lines if line]
        # a statement starts with a letter; number lines skip the regexes
        if lines and not (
            lines[0][0].isalpha()
            and (_ENTRY_HEAD.fullmatch(lines[0]) or _head(lines[0], numbers[0]))
        ):
            raise ParseError(f"unrecognized directive '{lines[0].split()[0]}'", numbers[0])
        at = [k for k, line in enumerate(lines) if line[0].isalpha()]
        heads = [_ENTRY_HEAD.fullmatch(lines[k]) for k in at]
        heads = [
            m.groups("") if m else _head(lines[k], numbers[k]) for k, m in zip(at, heads)
        ]
        if not all(heads):  # continuation lines that start with a letter
            at = [k for k, h in zip(at, heads) if h]
            heads = [h for h in heads if h]
        self.words, self.heads, rests = zip(*heads) if heads else ((), (), ())
        for k, rest in zip(at, rests):
            lines[k] = rest
        self.lines, self.numbers, self.at = lines, numbers, at + [len(lines)]
        count = len(heads)
        self.keys = np.fromiter(
            map(_ENTRY_CODES.get, self.words, itertools.repeat(-1)), dtype=np.intp, count=count
        )
        self.keys += 3 * np.fromiter(
            map(str.count, self.heads, itertools.repeat(":")), dtype=np.intp, count=count
        )
        self.lengths = np.diff(np.array(self.at, dtype=np.intp)) - 1
        self.lengths += np.fromiter(map(bool, rests), dtype=bool, count=count)

    def line(self, i):
        """The line number of statement i."""
        return self.numbers[self.at[i]]

    def slots(self, i):
        """The ``:`` fields of statement i."""
        return self.heads[i].replace(":", " ").split()

    def body(self, i):
        """The body of statement i as whole lines, the first one empty if
        the head line holds no more."""
        return self.lines[self.at[i] : self.at[i + 1]]

    def tokens(self, i):
        """The value tokens of statement i (numbers or a keyword)."""
        return " ".join(self.body(i)).split()

    def slot_columns(self, run, k):
        """The ``:`` fields of statements ``run``, each with ``k`` of them,
        as k columns."""
        flat = " ".join([self.heads[i] for i in run]).replace(":", " ").split()
        return [flat[j::k] for j in range(k)]

    def first_lines(self, indices):
        """The first body line of each statement in ``indices``."""
        lines, at = self.lines, self.at
        return [lines[at[i]] or lines[at[i] + 1] for i in indices]


def _integer(token, line):
    """``int(token)`` for a token of digits; a longer one than ``_MAX_DIGITS`` is a ParseError."""
    if len(token) > _MAX_DIGITS:
        raise ParseError(
            f"integer of {len(token):,} digits; at most {_MAX_DIGITS:,} are read", line
        )
    return int(token)


class _NameSpace:
    """Resolve a state/action/observation token to an index (a slice for '*').

    ``lookup`` maps every name and every index as ``str`` writes it; a
    name takes precedence over the index it spells.
    """

    def __init__(self, kind, names):
        self.kind = kind
        self.names = names
        self.lookup = dict(zip(map(str, range(len(names))), range(len(names))))
        self.lookup.update(zip(names, range(len(names))))

    def resolve(self, token, line):
        """``_ALL`` for '*', else ``lookup``'s index for ``token`` or an
        index written otherwise, such as ``01``."""
        if token == "*":
            return _ALL
        i = self.lookup.get(token)
        if i is None and _INDEX.fullmatch(token) and _integer(token, line) < len(self.names):
            i = int(token)
        if i is None:
            raise ParseError(f"unknown {self.kind} '{token}'", line)
        return i


def _check_budget(table, size, line):
    """Refuse a table of more than TABLE_BUDGET entries at ``line``."""
    if size > TABLE_BUDGET:
        raise ParseError(
            f"{table} table of at least {size:,} entries is past the budget of "
            f"{TABLE_BUDGET:,}",
            line,
        )


def _names_from_tokens(tokens, word, line, counts):
    """The names a states/actions/observations declaration gives, from a
    count or a list.  ``counts`` holds how many each of the three
    declares, 1 until it is read: this one's number goes there, and the T
    and O tables and the names, at NAME_ENTRIES each, are checked against
    TABLE_BUDGET, before any name is built."""
    if not tokens:
        raise ParseError(f"empty {word} declaration", line)
    numbered = len(tokens) == 1 and _INDEX.fullmatch(tokens[0])
    if numbered:
        digits = len(tokens[0].lstrip("0"))
        if digits > len(str(TABLE_BUDGET)):
            raise ParseError(
                f"{word} count of {digits:,} digits is past the table budget of "
                f"{TABLE_BUDGET:,} entries",
                line,
            )
        counts[word] = _integer(tokens[0], line)
        if counts[word] < 1:
            raise ParseError(f"{word} count must be positive", line)
    else:
        for name in tokens:  # no slot could refer to such a name
            if name == "*" or ":" in name:
                raise ParseError(
                    f"name '{name}' cannot be written in a slot ('*' is the wildcard, "
                    "':' separates slots)",
                    line,
                )
        if len(set(tokens)) != len(tokens):
            raise ParseError(f"duplicate {word} name", line)
        counts[word] = len(tokens)
    n, na, no = counts["states"], counts["actions"], counts["observations"]
    _check_budget("transition", na * n * n, line)
    _check_budget("observation", na * n * no, line)
    _check_budget("name", NAME_ENTRIES * (n + na + no), line)
    return [f"{word[0]}{i}" for i in range(counts[word])] if numbered else list(tokens)


def _floats(tokens, expected, line, what):
    """``expected`` finite numbers read with Python's ``float``, as an array."""
    if len(tokens) != expected:
        raise ParseError(
            f"{what}: expected {expected} numbers, found {len(tokens)}", line
        )
    try:
        vals = np.fromiter(map(float, tokens), dtype=np.float64, count=expected)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line) from None
    finite = np.isfinite(vals)
    if not finite.all():
        raise ParseError(
            f"{what}: non-finite number '{tokens[int(finite.argmin())]}'", line
        )
    return vals


def _declarations(stmts):
    """The preamble's values, read in file order.

    Returns ``(discount, states, actions, observations, start)``, the
    names as one ``_NameSpace`` per kind and ``start`` the index of the
    ``start`` statement or None.  Refuses a second declaration of a
    keyword, and an entry or ``start`` before all of states, actions and
    observations are declared.
    """
    discount = None
    spaces = {}  # states, actions and observations, as name maps
    seen = {}
    counts = dict.fromkeys(("states", "actions", "observations"), 1)
    # the preamble and the first entry: as no keyword is declared twice,
    # a later entry cannot come before a declaration the first one had
    preamble = stmts.keys < 0
    order = np.flatnonzero(preamble | (np.cumsum(~preamble) == 1)).tolist()
    for i in order:
        word, line = stmts.words[i], stmts.line(i)
        if word in _ENTRY_CODES or word == "start":
            if len(spaces) < 3:
                raise ParseError(
                    f"'{word}' entry before states/actions/observations are declared",
                    line,
                )
            if word in _ENTRY_CODES:
                continue
        if word in seen:
            raise ParseError(
                f"second '{word}' declaration; the first is on line {stmts.line(seen[word])}",
                line,
            )
        seen[word] = i
        if word == "discount":
            discount = float(_floats(stmts.tokens(i), 1, line, "discount")[0])
        elif word == "values":
            tokens = stmts.tokens(i)
            if tokens == ["cost"]:
                raise UnsupportedConstructError(
                    "'values: cost' is not supported; express the model with rewards",
                    line,
                )
            if tokens != ["reward"]:
                raise ParseError(f"bad values declaration {tokens}", line)
        elif word != "start":  # a name map of kind "state", "action" or "observation"
            names = _names_from_tokens(stmts.tokens(i), word, line, counts)
            spaces[word] = _NameSpace(word[:-1], names)

    if discount is None:
        raise ParseError("missing discount declaration")
    if len(spaces) < 3:
        raise ParseError("missing states/actions/observations declaration")
    sn, an, on = (spaces[word] for word in ("states", "actions", "observations"))
    return discount, sn, an, on, seen.get("start")


def parse_pomdp(text: str) -> PomdpModel:
    """Parse file contents into a validated PomdpModel."""
    stmts = _Statements(text)
    discount, sn, an, on, start = _declarations(stmts)
    transition, obs_kernel, reward_raw = _fill_tables(stmts, sn, an, on)
    initial_belief = _parse_start(stmts, start, sn)
    states, actions, observations = sn.names, an.names, on.names

    # one sum per row serves the check and the division
    sums = transition.sum(axis=2, keepdims=True)
    check_rows(sums[..., 0], "transition", states, actions)
    transition /= sums
    sums = obs_kernel.sum(axis=2, keepdims=True)
    check_rows(sums[..., 0], "observation", states, actions, arriving=True)
    obs_kernel /= sums

    reward_values, reward_index, scale, offset = _collect_rewards(
        transition, obs_kernel, reward_raw, states, actions, observations
    )

    model = PomdpModel(
        states=states,
        actions=actions,
        observations=observations,
        reward_values=reward_values,
        transition=transition,
        signal_kernel=_signal_kernel(obs_kernel, reward_index, len(reward_values)),
        discount=discount,
        initial_belief=initial_belief,
        reward_scale=scale,
        reward_offset=offset,
    )
    model.validate()
    return model


def load_pomdp(path) -> PomdpModel:
    """Load and validate a ``.POMDP`` file, which must be UTF-8 text; one
    leading byte-order mark is dropped.  Lines may end in ``\\n``,
    ``\\r\\n`` or ``\\r``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    del data  # the parse holds the text's lines, not its bytes as well
    return parse_pomdp(text)


def _keyword_body(word, shape, line):
    """The body an ``identity`` or ``uniform`` keyword stands for."""
    if word == "identity":
        rows, cols = shape
        if rows != cols:
            raise ParseError(
                f"identity matrix needs square shape, have {rows}x{cols}", line
            )
        return np.eye(rows)
    return np.full(shape, 1.0 / shape[-1])


# Indexed by body rank (entry, row, matrix): the keywords a T or O body of
# that rank may be, and each table's name for such a body in messages.
_TO_WORDS = ((), ("uniform",), _MATRIX_WORDS)
_BODY_NAMES = {
    key: tuple(f"{table} {body}" for body in ("entry", "row", "matrix"))
    for key, table in (("T", "transition"), ("O", "observation"), ("R", "reward"))
}


def _fill_tables(stmts, sn, an, on):
    """Raw T, O and R tables, entries applied in file order, their slots
    read by the state, action and observation name maps.

    Each table is viewed with its axes in the order an entry's slots name
    them, so an entry is a basic-index assignment and a stretch of a run
    one fancy-index assignment.  Consecutive entries (preamble statements
    between them do not count) with one-line bodies under the same keyword
    and slot count form a run.  Returns ``transition[s, a, s']``,
    ``obs_kernel[s', a, o]`` and ``reward_raw[a, s, s', o]``, a read-only
    broadcast view: its
    departing-state axis is filled only if some R entry names a departing
    state, and is one row broadcast over all n otherwise, so such a file
    allocates no A·n²·O table.
    """
    n, na, no = len(sn.names), len(an.names), len(on.names)
    entries = np.flatnonzero(stmts.keys >= 0)
    key = stmts.keys[entries]
    rewards = entries[key % 3 == _ENTRY_CODES["R"]].tolist()
    departing = next((i for i in rewards if stmts.slots(i)[1:2] != ["*"]), None)
    if departing is not None:
        _check_budget("reward", na * n * n * no, stmts.line(departing))
    transition = np.zeros((n, na, n))
    obs_kernel = np.zeros((n, na, no))
    reward_raw = np.zeros((na, 1 if departing is None else n, n, no))
    # keyword -> (table in slot order, slot name spaces, fewest slots,
    #             keywords allowed by body rank)
    kinds = {
        "T": (transition.transpose(1, 0, 2), (an, sn, sn), 1, _TO_WORDS),
        "O": (obs_kernel.transpose(1, 0, 2), (an, sn, on), 1, _TO_WORDS),
        "R": (reward_raw, (an, sn, sn, on), 2, ((), (), ())),
    }
    # a run breaks where the keyword or slot count changes and around
    # every entry whose body is not one line
    one_line = stmts.lengths[entries] == 1
    breaks = np.ones(len(entries) + 1, dtype=bool)
    breaks[1:-1] = (key[1:] != key[:-1]) | ~one_line[1:] | ~one_line[:-1]
    bounds = np.flatnonzero(breaks).tolist()
    entries = entries.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _apply_run(stmts, entries[lo:hi], *kinds[stmts.words[entries[lo]]])
    return transition, obs_kernel, np.broadcast_to(reward_raw, (na, n, n, no))


def _run_rows(lines, width):
    """The one-line bodies of a run as the rows of one ``np.loadtxt`` call,
    or None when they do not read as one row of ``width`` finite numbers
    per entry; its entries then read their own tokens, which gives every
    error."""
    try:
        rows = np.loadtxt(lines, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:
        return None
    if rows.shape != (len(lines), width) or not np.isfinite(rows).all():
        return None
    return rows


def _apply_run(stmts, run, table, spaces, fewest, words):
    """The entries ``run`` of one run, in file order.  A run of at least
    ``_SHORT_RUN`` entries whose bodies are read by ``_run_rows`` writes
    each stretch of entries whose slots all look up by one ``_assign``;
    an entry with a slot ``lookup`` does not map ('*', an index such as
    ``01``, an unknown name) is one ``_apply_entry`` from its row, and
    so is every entry of any other run, from its tokens."""
    k = stmts.heads[run[0]].count(":") + 1
    rows = None
    # a lone entry is a run of one whatever its body's length
    if len(run) >= _SHORT_RUN and stmts.lengths[run[0]] == 1 and fewest <= k <= len(spaces):
        rows = _run_rows(stmts.first_lines(run), math.prod(table.shape[k:]))
    if rows is None:
        for i in run:
            _apply_entry(stmts, i, table, spaces, fewest, words)
        return
    idx = np.empty((len(run), k), dtype=np.intp)
    alone = np.zeros(len(run), dtype=bool)  # some slot is not in ``lookup``
    for j, column in enumerate(stmts.slot_columns(run, k)):
        idx[:, j] = np.fromiter(
            map(spaces[j].lookup.get, column, itertools.repeat(_UNKNOWN)),
            dtype=np.intp,
            count=len(run),
        )
        alone |= idx[:, j] == _UNKNOWN
    starts = np.ones(len(run) + 1, dtype=bool)
    starts[1:-1] = alone[1:] | alone[:-1]
    bounds = np.flatnonzero(starts).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if alone[lo]:
            _apply_entry(stmts, run[lo], table, spaces, fewest, words, rows[lo])
        else:
            _assign(table, idx[lo:hi], rows[lo:hi])


def _assign(table, idx, rows):
    """``table[idx[e]] = rows[e]`` for each entry e in order.

    Entries that name the same target keep only the last one: numpy leaves
    unspecified which of the values given to one position in a fancy-index
    assignment it keeps.
    """
    k = idx.shape[1]
    target = np.ravel_multi_index(tuple(idx.T), table.shape[:k])
    ordered = np.sort(target)
    if (ordered[1:] == ordered[:-1]).any():  # only then copy the rows
        _, last = np.unique(target[::-1], return_index=True)
        keep = len(idx) - 1 - last
        idx, rows = idx[keep], rows[keep]
    table[tuple(idx.T)] = rows.reshape((len(idx),) + table.shape[k:])


def _apply_entry(stmts, i, table, spaces, fewest, words, row=None):
    """The T/O/R entry i: slot k indexes axis k of ``table`` ('*' is a full
    slice), and the body fills the remaining axes with that many numbers,
    or with a keyword where ``words`` allows one at the body's rank.
    ``row`` is the body as its run's ``_run_rows`` already read it."""
    line, slots = stmts.line(i), stmts.slots(i)
    k = len(slots)
    index = [spaces[0].resolve(slots[0], line)]
    if not fewest <= k <= len(spaces):
        raise ParseError(
            f"{stmts.words[i]} entry takes {fewest}-{len(spaces)} ':' fields", line
        )
    for j in range(1, k):
        index.append(spaces[j].resolve(slots[j], line))
    shape = table.shape[k:]
    rank = len(shape)
    if row is None:
        tokens = stmts.tokens(i)
        if len(tokens) == 1 and tokens[0] in words[rank]:
            row = _keyword_body(tokens[0], shape, line)
        else:
            what = _BODY_NAMES[stmts.words[i]][rank]
            row = _floats(tokens, math.prod(shape), line, what)
    table[tuple(index)] = row.reshape(shape)


def _parse_start(stmts, i, sn):
    """The initial belief that the ``start`` statement i gives, uniform
    if i is None."""
    n = len(sn.names)
    if i is None:
        return np.full(n, 1.0 / n)
    line, body = stmts.line(i), stmts.body(i)
    mode = _START_MODE.match(body[0])
    if mode is not None:
        mode, first = mode.groups()
        tokens = " ".join([first, *body[1:]]).split()
        chosen = np.zeros(n, dtype=bool)
        for tok in tokens:
            chosen[sn.resolve(tok, line)] = True
        if mode == "exclude":
            chosen = ~chosen
        if not chosen.any():
            raise ParseError("start set is empty", line)
        return chosen / chosen.sum()
    tokens = stmts.tokens(i)
    if len(tokens) == 1:
        tok = tokens[0]
        if tok == "uniform":
            return np.full(n, 1.0 / n)
        # a name or an index; with one state, "1" is the probability
        # vector and "0" the state
        if tok in sn.lookup or (
            _INDEX.fullmatch(tok) and (n > 1 or _integer(tok, line) < n)
        ):
            belief = np.zeros(n)
            belief[sn.resolve(tok, line)] = 1.0
            return belief
    vals = _floats(tokens, n, line, "start belief")
    if not is_distribution(vals):
        raise ParseError("start belief is not a probability vector", line)
    return vals / vals.sum()


def _collect_rewards(transition, obs_kernel, reward_raw, states, actions, observations):
    """Bin rewards on reachable (s,a,s',o) triples and normalize into [0,1].

    Emission is tied to (action, arriving state, observation); a reward that
    differs across departing states on reachable triples cannot be expressed
    that way and is rejected.  The value of a reachable (a, s', o) is taken
    from its first departing state.  A table whose departing axis is one
    row broadcast (stride 0) cannot vary with it, so that row is the value.
    """
    support = transition.transpose(1, 0, 2) > 0  # [a, s, s']: s reaches s'
    defined = support.any(axis=1)[:, :, None] & (obs_kernel.transpose(1, 0, 2) > 0)
    if reward_raw.strides[1] == 0:
        value = reward_raw[:, 0]  # [a, s', o]
    else:
        departing = support[:, :, :, None]
        spread = np.max(reward_raw, axis=1, where=departing, initial=-np.inf)
        spread -= np.min(reward_raw, axis=1, where=departing, initial=np.inf)
        bad = np.argwhere(defined & (spread > REWARD_SPREAD_TOL))  # [a, s', o], C order
        if bad.size:
            a, s2, o = bad[0]
            raise ValidationError(
                f"reward for (action={actions[a]}, arriving state="
                f"{states[s2]}, observation={observations[o]}) varies "
                "with the departing state; signals condition on the "
                "arriving state only, so this model is not expressible"
            )
        first = support.argmax(axis=1)[:, None, :, None]
        value = np.take_along_axis(reward_raw, first, axis=1)[:, 0]  # [a, s', o]

    reachable_vals = value[defined]
    if reachable_vals.size == 0:
        reachable_vals = np.array([0.0])
    distinct = np.unique(reachable_vals)
    if distinct.size > DEFAULT_REWARD_CAP:
        raise ValidationError(
            f"model uses {distinct.size} distinct reward values, above the "
            f"cap of {DEFAULT_REWARD_CAP}; outside the finite-reward-set assumption"
        )

    lo, hi = distinct[0], distinct[-1]
    if lo >= 0.0 and hi <= 1.0:
        scale, offset = 1.0, 0.0
    else:
        scale = (hi - lo) if hi > lo else 1.0
        offset = lo
    reward_values = (distinct - offset) / scale

    # exact: every reachable value is an element of distinct
    reward_index = np.where(defined, np.searchsorted(distinct, value), 0)
    return reward_values, reward_index, float(scale), float(offset)


def _signal_kernel(obs_kernel, reward_index, nr):
    """Signal kernel [s', a, z]: observation o with reward r is z = o * nr + r."""
    n, na, no = obs_kernel.shape
    signal_kernel = np.zeros((n, na, no * nr))
    z = np.arange(no) * nr + reward_index.transpose(1, 0, 2)
    np.put_along_axis(signal_kernel, z, obs_kernel, axis=2)
    return signal_kernel
