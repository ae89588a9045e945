"""gamma's certificate: the flow engine's witness and flow, and the
independent checker that accepts them."""

import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plab import (PlunGraph, build_plun_graph, gamma_flow, make_abelian_group,
                  make_cayley_group, sumset)
from plab import magnification
from plab.certificate import check_certificate
from plab.cli import main, parse_instance
from plab.errors import CertificateError

from cayley_tables import bundled_tables
from oracles import gamma_exhaustive, naive_members, naive_sumset

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CAYLEY = [make_cayley_group(table) for _, table in bundled_tables(12)]


def translate_graph(rng):
    g = make_abelian_group(rng.choice([[rng.randint(2, 48)],
                                       [rng.randint(2, 6), rng.randint(2, 6)]]))
    a = rng.sample(range(g.order), rng.randint(1, min(g.order, 10)))
    bk = rng.sample(range(g.order), rng.randint(1, min(g.order, 6)))
    return PlunGraph(g, {x: g.set_of(naive_sumset(g, [x], bk)).bits for x in a})


def arbitrary_graph(rng):
    # unions of a few random blocks; some images are empty, which makes gamma 0
    g = make_abelian_group([rng.randint(2, 40)])
    blocks = [rng.getrandbits(g.order) for _ in range(rng.randint(1, 4))]
    adj = {}
    for x in rng.sample(range(g.order), rng.randint(1, min(g.order, 10))):
        adj[x] = 0
        for block in blocks:
            if rng.random() < 0.4:
                adj[x] |= block
    return PlunGraph(g, adj)


def noncomm_graph(rng):
    # the graph x -> B1*x*B2 of the noncomm check
    g = rng.choice(CAYLEY)
    a, b1, b2 = ([rng.randrange(g.order) for _ in range(rng.randint(1, size))]
                 for size in (10, 4, 4))
    return PlunGraph(g, {x: g.set_of(naive_sumset(g, naive_sumset(g, b1, [x]), b2)).bits
                            for x in a})


@given(st.sampled_from([translate_graph, arbitrary_graph, noncomm_graph]),
       st.integers(0, 100_000))
def test_gamma_flow_certificate_matches_oracles(make_graph, seed):
    graph = make_graph(random.Random(seed))
    res = gamma_flow(graph)
    assert res.gamma == gamma_exhaustive(graph).gamma
    members = list(res.witness)
    assert members and set(members) <= set(graph.left)
    image = {e for x in members for e in range(graph.group.order) if graph.adj_bits[x] >> e & 1}
    assert len(image) * res.gamma.denominator == len(members) * res.gamma.numerator
    check_certificate(graph.adj_bits, res.gamma, res.witness.bits, res.classes, res.flow)
    sent = dict.fromkeys(graph.left, 0)
    for x, _, amount in res.flow:
        sent[x] += amount
    assert set(sent.values()) == {res.gamma.numerator}


# -- mutations the checker must reject ------------------------------------------------

def _move_one_unit(adj_bits, classes, flow, witness_bits):
    """One unit of the first flow entry moved to a class outside its image."""
    (x, j, amount), rest = flow[0], list(flow[1:])
    outside = next(i for i, c in enumerate(classes) if c & ~adj_bits[x])
    moved = [(x, j, amount - 1)] if amount > 1 else []
    return classes, moved + rest + [(x, outside, 1)], witness_bits


def _drop_class_bit(adj_bits, classes, flow, witness_bits):
    """The lowest bit dropped from a class that the witness's image holds."""
    image = 0
    for x in adj_bits:
        if witness_bits >> x & 1:
            image |= adj_bits[x]
    j = next(i for i, c in enumerate(classes) if c & image)
    return classes[:j] + (classes[j] & classes[j] - 1,) + classes[j + 1:], flow, witness_bits


def _drop_witness_element(adj_bits, classes, flow, witness_bits):
    """The witness without its smallest element."""
    return classes, flow, witness_bits & witness_bits - 1


def _repeat_class(adj_bits, classes, flow, witness_bits):
    """A class listed twice, so that its capacity would count twice."""
    return classes + classes[:1], flow, witness_bits


def _negative_amount(adj_bits, classes, flow, witness_bits):
    """The first flow entry written as amount + 1 and -1."""
    x, j, amount = flow[0]
    return classes, [(x, j, amount + 1), (x, j, -1), *flow[1:]], witness_bits


def _empty_witness(adj_bits, classes, flow, witness_bits):
    """No witness at all."""
    return classes, flow, 0


def _witness_outside_left(adj_bits, classes, flow, witness_bits):
    """The witness with one more bit, on a vertex outside the left set."""
    outside = next(v for v in range(len(adj_bits) + 1) if v not in adj_bits)
    return classes, flow, witness_bits | 1 << outside


def _class_index_past_end(adj_bits, classes, flow, witness_bits):
    """The first flow entry sent into class len(classes), one past the last."""
    x, _, amount = flow[0]
    return classes, [(x, len(classes), amount), *flow[1:]], witness_bits


def _zero_amount(adj_bits, classes, flow, witness_bits):
    """An extra flow entry of amount 0."""
    x, j, _ = flow[0]
    return classes, [*flow, (x, j, 0)], witness_bits


def _z40_graph():
    g = make_abelian_group([40])
    return build_plun_graph(g.set_of([0, 1, 20]), g.set_of([0, 1, 2]))


def _d3_graph():
    g = make_cayley_group(dict(bundled_tables(12))["D3"])
    b1, b2 = g.set_of([0, 4]), g.set_of([2, 5])
    return PlunGraph(g, {x: sumset(sumset(b1, g.set_of([x])), b2).bits for x in (0, 1, 4)})


@pytest.mark.parametrize("mutate", [_move_one_unit, _drop_class_bit, _drop_witness_element,
                                    _repeat_class, _negative_amount, _empty_witness,
                                    _witness_outside_left, _class_index_past_end, _zero_amount])
@pytest.mark.parametrize("make_graph", [_z40_graph, _d3_graph])
def test_checker_rejects_mutated_certificates(make_graph, mutate):
    graph = make_graph()
    res = gamma_flow(graph)
    assert res.iterations >= 2  # the witness comes from a min cut, the flow from the last round
    check_certificate(graph.adj_bits, res.gamma, res.witness.bits, res.classes, res.flow)
    classes, flow, witness_bits = mutate(graph.adj_bits, res.classes, res.flow, res.witness.bits)
    with pytest.raises(CertificateError):
        check_certificate(graph.adj_bits, res.gamma, witness_bits, classes, flow)


# -- a rejected certificate is an internal error ---------------------------------------

@pytest.fixture
def flow_short_by_one_unit(monkeypatch):
    """An engine whose feasible rounds lose one unit of flow."""
    real = magnification._max_flow

    def max_flow(out_of, sizes, p, q):
        flows, reached = real(out_of, sizes, p, q)
        if not reached:
            gets = next(g for g in flows if g)
            i = next(iter(gets))
            gets[i] -= 1
            if not gets[i]:
                del gets[i]
        return flows, reached

    monkeypatch.setattr(magnification, "_max_flow", max_flow)


def test_rejected_certificate_exits_1_with_a_replayable_dump(flow_short_by_one_unit, capsys):
    assert main(["verify", str(FIXTURES / "z5.json"), "--check", "plgen"]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no verdict line, neither HOLDS nor FAILS
    first, dump_line, end = err.split("\n")
    assert first.startswith("internal error: gamma certificate rejected: ") and end == ""
    dump = json.loads(dump_line)
    assert dump["left"] == [0, 1] and dump["gamma"] == "5/2" and dump["witness"] == [0, 1]
    adj_bits = {x: sum(1 << e for e in image) for x, image in zip(dump["left"], dump["images"])}
    classes = tuple(sum(1 << e for e in c) for c in dump["classes"])
    with pytest.raises(CertificateError):
        check_certificate(adj_bits, Fraction(dump["gamma"]),
                          sum(1 << x for x in dump["witness"]), classes,
                          [tuple(f) for f in dump["flow"]])


def test_rejected_certificate_dumps_a_wide_graph_by_its_members(flow_short_by_one_unit,
                                                                tmp_path, capsys):
    # 250 left vertices in Z_256^2: every list in the dump names the members
    # of a 65,536-bit set, read off its set bits
    rng = random.Random(23)
    data = {"group": [256, 256], "A": sorted(rng.sample(range(1 << 16), 250)),
            "B": [[0, 1, 256], [0, 2, 515]], "l": 1}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--check", "plgen"]) == 1
    dump = json.loads(capsys.readouterr().err.split("\n")[1])
    inst, _, _ = parse_instance(data)
    adj_bits = build_plun_graph(inst.a, inst.bk).adj_bits
    assert dump["left"] == data["A"]
    assert dump["images"] == [naive_members(adj_bits[x]) for x in data["A"]]
    # the classes are the right vertices grouped by the left vertices that reach them
    owners = {}
    for x, image in zip(dump["left"], dump["images"]):
        for y in image:
            owners.setdefault(y, set()).add(x)
    by_owners = {}
    for y in sorted(owners):
        by_owners.setdefault(frozenset(owners[y]), []).append(y)
    assert sorted(dump["classes"]) == sorted(by_owners.values())
    witness = dump["witness"]
    assert witness == sorted(set(witness)) and set(witness) <= set(data["A"])
    image = {y for y, xs in owners.items() if xs & set(witness)}
    assert Fraction(len(image), len(witness)) == Fraction(dump["gamma"])


def test_rejected_certificate_stops_a_sweep_without_rows(flow_short_by_one_unit, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "count": 5, "checks": ["plgen"]}))
    assert main(["sweep", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ")


def test_certificate_error_keeps_its_dump_across_processes():
    # sweep workers hand exceptions back pickled
    exc = pickle.loads(pickle.dumps(CertificateError("rejected", {"gamma": "1"})))
    assert str(exc) == "rejected" and exc.dump == {"gamma": "1"}
