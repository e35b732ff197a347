"""Line-oriented text formats for models, rewards, strategies, and automata.

One lexical convention everywhere: UTF-8, ``#`` starts a comment, blank
lines are skipped, a section opens with a lone ``name:`` line and owns the
lines until the next section. Probabilities are exact rationals written
``p/q`` (or a bare integer); floats are rejected, and emitters write
``str(Fraction)``, which is lowest-terms ``p/q`` or a bare integer. Emitters
produce a fixed canonical layout (one entry per line, ids in declaration
order, no comments), so emit-parse-emit is byte-stable, which the reporting
relies on. Model names are not part of the format; callers name models after
their source.

Sections:
  model     states: actions: observations: obs: init: avail: trans: reward:
            obs pairs ``state=obs``; avail pairs ``obs=a,b`` (omitted
            section: everything available); trans ``s a -> t:p/q ...``;
            reward ``s a = p/q``. The reward section is optional.
  rewards   a lone reward: section, resolved against a given model.
  strategy  memory: init: next: update:; next ``m -> a:p/q ...``;
            update ``m obs a -> m':p/q ...``.
  automaton states: alphabet: final: init: trans:.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .chains import FiniteMemoryStrategy
from .model import Distr, ModelError, Pfa, Pomdp, RewardFn, validate_pfa

_TOKEN = re.compile(r"\S+")


class ParseError(ModelError):
    """Malformed input, located by 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _lines(text: str):
    """Yield (line number, [(column, token), ...]) for non-empty lines."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]
        if toks:
            yield ln, toks


def _split_sections(text: str, known: tuple[str, ...], required: tuple[str, ...]):
    """Group content lines under their section headers, and require each
    section of ``required`` to be present with some content."""
    sections: dict[str, list[tuple[int, list[tuple[int, str]]]]] = {}
    current: str | None = None
    for ln, toks in _lines(text):
        col, tok = toks[0]
        if tok.endswith(":"):
            name = tok[:-1]
            if name not in known:
                raise ParseError(f"unknown section {tok!r}", ln, col)
            if len(toks) > 1:
                raise ParseError(
                    f"section header {tok!r} must stand alone", ln, toks[1][0]
                )
            if name in sections:
                raise ParseError(f"duplicate section {tok!r}", ln, col)
            sections[name] = []
            current = name
        else:
            if current is None:
                raise ParseError(f"content before any section: {tok!r}", ln, col)
            sections[current].append((ln, toks))
    for name in required:
        if not sections.get(name):
            raise ParseError(f"missing or empty section {name + ':'!r}", 0)
    return sections


def parse_rational(text: str) -> Fraction | None:
    """Read ``p/q`` or ``p`` in decimal digits with ``q > 0``; None if malformed."""
    if "/" in text:
        num, _, den = text.partition("/")
        if num.isdigit() and den.isdigit() and int(den) > 0:
            return Fraction(int(num), int(den))
    elif text.isdigit():
        return Fraction(int(text))
    return None


def _fraction(tok: str, ln: int, col: int) -> Fraction:
    x = parse_rational(tok)
    if x is None:
        raise ParseError(f"bad rational {tok!r} (write p/q or p)", ln, col)
    return x


def _legal_name(name: str) -> bool:
    """Can ``name`` stand for a state, action, observation, letter or memory?

    It must be exactly one token and hold none of ``=``, ``:``, ``,`` and
    ``#``, which the formats use as separators and the comment mark.
    """
    return _TOKEN.fullmatch(name) is not None and not any(
        c in name for c in "=:,#"
    )


def _names(section, what: str) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for ln, toks in section:
        for col, tok in toks:
            if not _legal_name(tok):
                raise ParseError(f"bad {what} name {tok!r}", ln, col)
            if tok in seen:
                raise ParseError(f"duplicate {what} name {tok!r}", ln, col)
            seen.add(tok)
            out.append(tok)
    return out


def _lookup(table: dict[str, int], tok: str, what: str, ln: int, col: int) -> int:
    got = table.get(tok)
    if got is None:
        raise ParseError(f"undefined {what} {tok!r}", ln, col)
    return got


def _single(section, what: str, table: dict[str, int]) -> int:
    entries = [(ln, col, tok) for ln, toks in section for col, tok in toks]
    if len(entries) != 1:
        ln = entries[1][0] if entries else 0
        raise ParseError(f"{what} must name exactly one entry", ln)
    ln, col, tok = entries[0]
    return _lookup(table, tok, what, ln, col)


def _distr_tokens(toks, ln: int, table: dict[str, int], what: str) -> Distr:
    weights: dict[int, Fraction] = {}
    for col, tok in toks:
        name, sep, frac = tok.partition(":")
        if not sep:
            raise ParseError(f"expected {what}:probability, got {tok!r}", ln, col)
        k = _lookup(table, name, what, ln, col)
        if k in weights:
            raise ParseError(f"repeated {what} {name!r}", ln, col)
        weights[k] = _fraction(frac, ln, col + len(name) + 1)
    d = Distr(weights)
    if sum(d.p.values(), Fraction(0)) != 1:
        raise ParseError("probabilities must sum to 1", ln, toks[0][0])
    return d


def _arrow_line(toks, ln: int, head: int, arrow: str = "->"):
    if len(toks) < head + 2 or toks[head][1] != arrow:
        raise ParseError(
            f"expected {' '.join(['<name>'] * head)} {arrow} ...", ln, toks[0][0]
        )
    return toks[:head], toks[head + 1 :]


def _parse_trans(section, sid, lid, what: str) -> dict[tuple[int, int], Distr]:
    """Rows of a ``trans:`` section, ``state <what> -> state:p ...``, keyed
    by (state, <what>) ids; ``lid`` names the actions or letters."""
    rows: dict[tuple[int, int], Distr] = {}
    for ln, toks in section:
        head, rest = _arrow_line(toks, ln, 2)
        s = _lookup(sid, head[0][1], "state", ln, head[0][0])
        a = _lookup(lid, head[1][1], what, ln, head[1][0])
        if (s, a) in rows:
            raise ParseError(
                f"duplicate row for {head[0][1]!r} {head[1][1]!r}", ln, head[0][0]
            )
        rows[(s, a)] = _distr_tokens(rest, ln, sid, "state")
    return rows


def _trans_lines(rows: dict[tuple[int, int], Distr], states, labels) -> list[str]:
    """The ``trans:`` section of ``rows``, with ``labels`` naming the actions
    or letters."""
    out = ["trans:"]
    for s, a in sorted(rows):
        row = " ".join(f"{states[t]}:{p}" for t, p in rows[(s, a)].items())
        out.append(f"{states[s]} {labels[a]} -> {row}")
    return out


def _reward_lines(g: Pomdp, rewards: RewardFn) -> list[str]:
    out = ["reward:"]
    for (s, a) in sorted(rewards.table):
        out.append(f"{g.states[s]} {g.actions[a]} = {rewards.get(s, a)}")
    return out


_MODEL_SECTIONS = (
    "states",
    "actions",
    "observations",
    "obs",
    "init",
    "avail",
    "trans",
    "reward",
)


def parse_model(text: str) -> tuple[Pomdp, RewardFn | None]:
    """Parse a model file; the reward section is returned when present."""
    required = ("states", "actions", "observations", "obs", "init", "trans")
    sec = _split_sections(text, _MODEL_SECTIONS, required)
    states = _names(sec["states"], "state")
    actions = _names(sec["actions"], "action")
    observations = _names(sec["observations"], "observation")
    sid = {n: i for i, n in enumerate(states)}
    aid = {n: i for i, n in enumerate(actions)}
    oid = {n: i for i, n in enumerate(observations)}

    obs_of: list[int | None] = [None] * len(states)
    for ln, toks in sec["obs"]:
        for col, tok in toks:
            sname, sep, oname = tok.partition("=")
            if not sep:
                raise ParseError(f"expected state=observation, got {tok!r}", ln, col)
            s = _lookup(sid, sname, "state", ln, col)
            if obs_of[s] is not None:
                raise ParseError(f"state {sname!r} mapped twice", ln, col)
            obs_of[s] = _lookup(oid, oname, "observation", ln, col + len(sname) + 1)
    for s, o in enumerate(obs_of):
        if o is None:
            raise ParseError(f"state {states[s]!r} has no observation", 0)

    initial = _single(sec["init"], "initial state", sid)

    availability = None
    if "avail" in sec:
        availability = {}
        for ln, toks in sec["avail"]:
            for col, tok in toks:
                oname, sep, alist = tok.partition("=")
                if not sep:
                    raise ParseError(
                        f"expected observation=actions, got {tok!r}", ln, col
                    )
                o = _lookup(oid, oname, "observation", ln, col)
                if o in availability:
                    raise ParseError(f"observation {oname!r} listed twice", ln, col)
                ids = []
                for part in alist.split(","):
                    ids.append(
                        _lookup(aid, part, "action", ln, col + len(oname) + 1)
                    )
                availability[o] = tuple(sorted(set(ids)))

    g = Pomdp(
        states=states,
        actions=actions,
        observations=observations,
        obs_of=obs_of,
        rows=_parse_trans(sec["trans"], sid, aid, "action"),
        initial=initial,
        availability=availability,
    )
    if not sec.get("reward"):
        return g, None
    return g, _parse_reward_section(sec["reward"], sid, aid)


def _parse_reward_section(section, sid, aid) -> RewardFn:
    table: dict[tuple[int, int], Fraction] = {}
    for ln, toks in section:
        head, rest = _arrow_line(toks, ln, 2, arrow="=")
        s = _lookup(sid, head[0][1], "state", ln, head[0][0])
        a = _lookup(aid, head[1][1], "action", ln, head[1][0])
        if len(rest) != 1:
            raise ParseError("expected a single rational after '='", ln, toks[0][0])
        if (s, a) in table:
            raise ParseError(
                f"duplicate reward for {head[0][1]!r} {head[1][1]!r}", ln, head[0][0]
            )
        table[(s, a)] = _fraction(rest[0][1], ln, rest[0][0])
    return RewardFn(table)


def parse_rewards(text: str, g: Pomdp) -> RewardFn:
    """Parse a standalone reward file against a model's names."""
    sec = _split_sections(text, ("reward",), ("reward",))
    sid = {n: i for i, n in enumerate(g.states)}
    aid = {n: i for i, n in enumerate(g.actions)}
    return _parse_reward_section(sec["reward"], sid, aid)


def emit_model(g: Pomdp, rewards: RewardFn | None = None) -> str:
    """Canonical text for a model: one entry per line, ids in order."""
    out = ["states:"]
    out += g.states
    out.append("actions:")
    out += g.actions
    out.append("observations:")
    out += g.observations
    out.append("obs:")
    out += [f"{g.states[s]}={g.observations[g.obs(s)]}" for s in range(g.n_states)]
    out.append("init:")
    out.append(g.states[g.initial])
    full = tuple(range(g.n_actions))
    if any(tuple(g.avail(o)) != full for o in range(g.n_observations)):
        out.append("avail:")
        for o in range(g.n_observations):
            acts = ",".join(g.actions[a] for a in g.avail(o))
            out.append(f"{g.observations[o]}={acts}")
    out += _trans_lines(g.rows, g.states, g.actions)
    if rewards is not None:
        out += _reward_lines(g, rewards)
    return "\n".join(out) + "\n"


def emit_rewards(g: Pomdp, rewards: RewardFn) -> str:
    return "\n".join(_reward_lines(g, rewards)) + "\n"


_STRATEGY_SECTIONS = ("memory", "init", "next", "update")


def parse_strategy(text: str, g: Pomdp) -> FiniteMemoryStrategy:
    """Parse a finite-memory strategy against a model's names."""
    sec = _split_sections(text, _STRATEGY_SECTIONS, _STRATEGY_SECTIONS)
    memories = _names(sec["memory"], "memory")
    mid = {n: i for i, n in enumerate(memories)}
    aid = {n: i for i, n in enumerate(g.actions)}
    oid = {n: i for i, n in enumerate(g.observations)}
    initial = _single(sec["init"], "initial memory", mid)

    next_action: list[Distr | None] = [None] * len(memories)
    for ln, toks in sec["next"]:
        head, rest = _arrow_line(toks, ln, 1)
        m = _lookup(mid, head[0][1], "memory", ln, head[0][0])
        if next_action[m] is not None:
            raise ParseError(f"memory {head[0][1]!r} has two next lines", ln)
        next_action[m] = _distr_tokens(rest, ln, aid, "action")
    for m, d in enumerate(next_action):
        if d is None:
            raise ParseError(f"memory {memories[m]!r} has no next line", 0)

    update: dict[tuple[int, int, int], Distr] = {}
    for ln, toks in sec["update"]:
        head, rest = _arrow_line(toks, ln, 3)
        m = _lookup(mid, head[0][1], "memory", ln, head[0][0])
        o = _lookup(oid, head[1][1], "observation", ln, head[1][0])
        a = _lookup(aid, head[2][1], "action", ln, head[2][0])
        if (m, o, a) in update:
            raise ParseError("duplicate update line", ln, head[0][0])
        update[(m, o, a)] = _distr_tokens(rest, ln, mid, "memory")

    return FiniteMemoryStrategy(
        memories=memories,
        next_action=next_action,
        update=update,
        initial=initial,
    )


def strategy_memory_names(sigma: FiniteMemoryStrategy) -> list[str]:
    """Printable unique memory names that ``parse_strategy`` reads back.

    Non-string labels become m<i>; when any string label is not a legal
    name or two labels collide, every memory is named m<i>.
    """
    names = []
    for i, label in enumerate(sigma.memories):
        names.append(label if isinstance(label, str) else f"m{i}")
    if len(set(names)) != len(names) or not all(map(_legal_name, names)):
        names = [f"m{i}" for i in range(len(names))]
    return names


def strategy_lines(sigma: FiniteMemoryStrategy, g: Pomdp):
    """The lines of ``emit_strategy``'s text, without their newlines, one
    at a time: a large witness can be written out without its whole text."""
    names = strategy_memory_names(sigma)
    yield "memory:"
    yield from names
    yield "init:"
    yield names[sigma.initial]
    yield "next:"
    for m, d in enumerate(sigma.next_action):
        row = " ".join(f"{g.actions[a]}:{p}" for a, p in d.items())
        yield f"{names[m]} -> {row}"
    yield "update:"
    # Each row's text by the row's id: strategies share rows among many
    # triples, and sigma.update keeps every row, so no id is reused here.
    texts: dict[int, str] = {}
    for m, o, a in sorted(sigma.update):
        d = sigma.update[(m, o, a)]
        row = texts.get(id(d))
        if row is None:
            row = texts[id(d)] = " ".join(f"{names[m2]}:{p}" for m2, p in d.items())
        yield f"{names[m]} {g.observations[o]} {g.actions[a]} -> {row}"


def emit_strategy(sigma: FiniteMemoryStrategy, g: Pomdp) -> str:
    return "\n".join(strategy_lines(sigma, g)) + "\n"


_PFA_SECTIONS = ("states", "alphabet", "final", "init", "trans")


def parse_pfa(text: str) -> Pfa:
    sec = _split_sections(text, _PFA_SECTIONS, ("states", "alphabet", "init", "trans"))
    states = _names(sec["states"], "state")
    alphabet = _names(sec["alphabet"], "letter")
    sid = {n: i for i, n in enumerate(states)}
    xid = {n: i for i, n in enumerate(alphabet)}
    final = []
    for ln, toks in sec.get("final", []):
        for col, tok in toks:
            final.append(_lookup(sid, tok, "state", ln, col))
    initial = _single(sec["init"], "initial state", sid)
    p = Pfa(
        states=states,
        alphabet=alphabet,
        final=final,
        initial=initial,
        rows=_parse_trans(sec["trans"], sid, xid, "letter"),
    )
    problems = validate_pfa(p)
    if problems:
        raise ParseError("; ".join(problems), 0)
    return p


def emit_pfa(p: Pfa) -> str:
    out = ["states:"]
    out += p.states
    out.append("alphabet:")
    out += p.alphabet
    out.append("final:")
    out += [p.states[q] for q in sorted(p.final)]
    out.append("init:")
    out.append(p.states[p.initial])
    out += _trans_lines(p.rows, p.states, p.alphabet)
    return "\n".join(out) + "\n"
