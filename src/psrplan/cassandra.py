"""Parser for Cassandra-format ``.POMDP`` model files.

Supported grammar: ``discount``/``values``/``states``/``actions``/
``observations`` preamble (counts or name lists), ``start`` belief
(vector, ``uniform``, single state, ``include``/``exclude`` lists), and
``T:``/``O:``/``R:`` entries with ``*`` wildcards, row/matrix
continuation lines and the ``identity``/``uniform`` keyword matrices.
``values: cost`` is rejected.  Entries apply in file order: a later entry
overwrites what an earlier one set, whether either names a ``*`` or not.
A run of consecutive one-line T/O/R bodies under one keyword and slot
count is read by one ``np.loadtxt`` call, every other body number by
number with Python's ``float``.  Both convert with CPython's correctly
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
_MATRIX_WORDS = {"identity", "uniform"}
_HEAD = re.compile(r"^([A-Za-z]+)\s*(:?)\s*(.*)$")
_START_MODE = re.compile(r"^(include|exclude)\s*:?\s*(.*)$")
_INDEX = re.compile(r"\d+")
_ALL = slice(None)  # a '*' slot

DEFAULT_REWARD_CAP = 64


class _Stmt:
    __slots__ = ("keyword", "mode", "slots", "body", "line")

    def __init__(self, keyword, mode, slots, body, line):
        self.keyword = keyword
        self.mode = mode  # include/exclude for start, else None
        self.slots = slots  # colon-separated header fields
        self.body = body  # value text: rest of the header line, then continuation lines
        self.line = line

    def tokens(self):
        """Value tokens (numbers or a matrix keyword), split when applied."""
        return " ".join(self.body).split()


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _split_statements(text: str):
    """Group physical lines into statements with their 1-based line numbers.

    Value text stays as whole lines until the statement is applied, so a
    large file never holds all of its number tokens at once.
    """
    stmts = []
    comments = "#" in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_strip_comment(raw) if comments else raw).strip()
        if not line:
            continue
        # a statement starts with a letter; number lines skip the regex
        m = _HEAD.match(line) if line[0].isalpha() else None
        word = m.group(1) if m else None
        if word in _KEYWORDS:
            rest = m.group(3)
            mode = None
            if word == "start":
                m2 = _START_MODE.match(rest)
                if m2:
                    mode, rest = m2.group(1), m2.group(2)
            if word in ("T", "O", "R"):
                if not m.group(2):
                    raise ParseError(f"expected ':' after {word}", lineno)
                *parts, last = rest.split(":")
                slots = []
                for part in parts:
                    fields = part.split()
                    if not fields:
                        raise ParseError(f"empty field in {word} entry", lineno)
                    if len(fields) != 1:
                        raise ParseError(
                            f"unexpected token '{fields[1]}' in {word} entry", lineno
                        )
                    slots.append(fields[0])
                fields = last.split(None, 1)
                if not fields:
                    raise ParseError(f"empty field in {word} entry", lineno)
                slots.append(fields[0])
                stmts.append(_Stmt(word, None, slots, fields[1:], lineno))
            else:
                stmts.append(_Stmt(word, mode, [], [rest], lineno))
        else:
            if not stmts:
                raise ParseError(f"unrecognized directive '{line.split()[0]}'", lineno)
            stmts[-1].body.append(line)
    return stmts


class _NameSpace:
    """Resolve a state/action/observation token to an index (a slice for '*')."""

    def __init__(self, kind, names):
        self.kind = kind
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def resolve(self, token, line):
        if token == "*":
            return _ALL
        if token in self.index:
            return self.index[token]
        if _INDEX.fullmatch(token):
            i = int(token)
            if 0 <= i < len(self.names):
                return i
        raise ParseError(f"unknown {self.kind} '{token}'", line)


def _names_from_tokens(tokens, prefix, line):
    if not tokens:
        raise ParseError(f"empty {prefix} declaration", line)
    if len(tokens) == 1 and _INDEX.fullmatch(tokens[0]):
        count = int(tokens[0])
        if count < 1:
            raise ParseError(f"{prefix} count must be positive", line)
        return [f"{prefix}{i}" for i in range(count)]
    if len(set(tokens)) != len(tokens):
        raise ParseError(f"duplicate {prefix} name", line)
    return list(tokens)


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
    """Split statements into the preamble's values and the entries.

    Returns ``(discount, states, actions, observations, start, entries)``:
    the ``start`` statement or None, and the T/O/R statements in file order.
    """
    discount = None
    states = actions = observations = None
    start_stmt = None
    kernel_stmts = []
    for st in stmts:
        if st.keyword == "discount":
            discount = float(_floats(st.tokens(), 1, st.line, "discount")[0])
        elif st.keyword == "values":
            tokens = st.tokens()
            if tokens == ["cost"]:
                raise UnsupportedConstructError(
                    "'values: cost' is not supported; express the model with rewards",
                    st.line,
                )
            if tokens != ["reward"]:
                raise ParseError(f"bad values declaration {tokens}", st.line)
        elif st.keyword == "states":
            states = _names_from_tokens(st.tokens(), "s", st.line)
        elif st.keyword == "actions":
            actions = _names_from_tokens(st.tokens(), "a", st.line)
        elif st.keyword == "observations":
            observations = _names_from_tokens(st.tokens(), "o", st.line)
        else:
            if states is None or actions is None or observations is None:
                raise ParseError(
                    f"'{st.keyword}' entry before states/actions/observations "
                    "are declared",
                    st.line,
                )
            if st.keyword == "start":
                start_stmt = st
            else:
                kernel_stmts.append(st)

    if discount is None:
        raise ParseError("missing discount declaration")
    if states is None or actions is None or observations is None:
        raise ParseError("missing states/actions/observations declaration")
    return discount, states, actions, observations, start_stmt, kernel_stmts


def parse_pomdp(text: str) -> PomdpModel:
    """Parse file contents into a validated PomdpModel."""
    discount, states, actions, observations, start_stmt, kernel_stmts = (
        _declarations(_split_statements(text))
    )
    transition, obs_kernel, reward_raw = _fill_tables(
        kernel_stmts, states, actions, observations
    )
    initial_belief = _parse_start(start_stmt, _NameSpace("state", states), len(states))

    check_rows(transition.sum(axis=2), "transition", states, actions)
    transition /= transition.sum(axis=2, keepdims=True)
    check_rows(obs_kernel.sum(axis=2), "observation", states, actions, arriving=True)
    obs_kernel /= obs_kernel.sum(axis=2, keepdims=True)

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
    leading byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_pomdp(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc


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


def _fill_tables(kernel_stmts, states, actions, observations):
    """Raw T, O and R tables, entries applied in file order.

    Each table is viewed with its axes in the order an entry's slots name
    them, so every entry is one basic-index assignment and a later entry
    overwrites what an earlier one set.  A run of one-line entries is read
    by one ``_run_rows`` call.  Returns ``transition[s, a, s']``,
    ``obs_kernel[s', a, o]`` and ``reward_raw[a, s, s', o]``, a read-only
    broadcast view: its departing-state axis is filled only if some R
    entry names a departing state, and is one row broadcast over all n
    otherwise, so such a file allocates no A·n²·O table.
    """
    sn = _NameSpace("state", states)
    an = _NameSpace("action", actions)
    on = _NameSpace("observation", observations)
    n, na, no = len(states), len(actions), len(observations)
    transition = np.zeros((n, na, n))
    obs_kernel = np.zeros((n, na, no))
    departing = any(st.keyword == "R" and st.slots[1:2] != ["*"] for st in kernel_stmts)
    reward_raw = np.zeros((na, n if departing else 1, n, no))
    # keyword -> (table in slot order, slot name spaces, fewest slots,
    #             keywords allowed by body rank)
    kinds = {
        "T": (transition.transpose(1, 0, 2), (an, sn, sn), 1, _TO_WORDS),
        "O": (obs_kernel.transpose(1, 0, 2), (an, sn, on), 1, _TO_WORDS),
        "R": (reward_raw, (an, sn, sn, on), 2, ((), (), ())),
    }
    for _, run in itertools.groupby(kernel_stmts, _run_key):
        run = list(run)
        rows = _run_rows(run) if len(run) > 1 else (None,)
        kind = kinds[run[0].keyword]
        for st, row in zip(run, rows):
            _apply_entry(st, *kind, row)
    return transition, obs_kernel, np.broadcast_to(reward_raw, (na, n, n, no))


def _run_key(st):
    """Consecutive entries with equal keys are read as one run: a one-line
    body under the same keyword and slot count.  A longer body is a key
    equal only to itself."""
    return (st.keyword, len(st.slots)) if len(st.body) == 1 else st


def _run_rows(run):
    """The one-line bodies of a run as the rows of one ``np.loadtxt`` call,
    or Nones when they do not read as one finite row per entry; those
    entries then read their own tokens, which gives every error."""
    try:
        rows = np.loadtxt(
            [st.body[0] for st in run], dtype=np.float64, ndmin=2, comments=None
        )
    except ValueError:
        return [None] * len(run)
    if rows.shape[0] != len(run) or not np.isfinite(rows).all():
        return [None] * len(run)
    return rows


def _apply_entry(st, table, spaces, fewest, words, row=None):
    """One T/O/R entry: slot k indexes axis k of ``table`` ('*' is a full
    slice), and the body fills the remaining axes with that many numbers,
    or with a keyword where ``words`` allows one at the body's rank.

    ``row`` is the body already read by ``_run_rows``; it is used when it
    holds as many numbers as the body must, and the tokens are read
    otherwise."""
    line, slots, k = st.line, st.slots, len(st.slots)
    index = [spaces[0].resolve(slots[0], line)]
    if not fewest <= k <= len(spaces):
        raise ParseError(
            f"{st.keyword} entry takes {fewest}-{len(spaces)} ':' fields", line
        )
    for i in range(1, k):
        index.append(spaces[i].resolve(slots[i], line))
    shape = table.shape[k:]
    if row is not None and row.size == math.prod(shape):
        table[tuple(index)] = row.reshape(shape)
        return
    rank = len(shape)
    tokens = st.tokens()
    if len(tokens) == 1 and tokens[0] in words[rank]:
        body = _keyword_body(tokens[0], shape, line)
    else:
        what = _BODY_NAMES[st.keyword][rank]
        body = _floats(tokens, math.prod(shape), line, what)
        if rank != 1:
            body = body.reshape(shape)
    table[tuple(index)] = body


def _parse_start(st, sn, n):
    if st is None:
        return np.full(n, 1.0 / n)
    tokens = st.tokens()
    if st.mode is not None:
        chosen = np.zeros(n, dtype=bool)
        for tok in tokens:
            chosen[sn.resolve(tok, st.line)] = True
        if st.mode == "exclude":
            chosen = ~chosen
        if not chosen.any():
            raise ParseError("start set is empty", st.line)
        return chosen / chosen.sum()
    if len(tokens) == 1:
        tok = tokens[0]
        if tok == "uniform":
            return np.full(n, 1.0 / n)
        # with one state, "1" is the probability vector and "0" the state
        if tok in sn.index or (_INDEX.fullmatch(tok) and (n > 1 or int(tok) < n)):
            belief = np.zeros(n)
            belief[sn.resolve(tok, st.line)] = 1.0
            return belief
    vals = _floats(tokens, n, st.line, "start belief")
    if not is_distribution(vals):
        raise ParseError("start belief is not a probability vector", st.line)
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
        bad = np.argwhere(defined & (spread > 1e-12))  # [a, s', o], C order
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
