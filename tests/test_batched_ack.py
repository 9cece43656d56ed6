"""Differential equivalence layer for the batched ACK fast path.

``REPRO_BATCH_ACKS=1`` replaces the per-ACK event machinery (handle-based
RTO re-arming, hop bounce events, per-ACK send loops) with flattened
straight-line code, a lazy deadline timer, inline delivery and time-shifted
receiver processing.  The documented contract is **bit-identical results**
— every throughput, delay, drop and timestamp a simulation reports — while
the event *trace* (heap sequence numbers, no-op timer fires, callback
names) may differ; ``tests/test_engine_golden_trace.py`` pins the classic
trace, and this module pins the equivalence:

* every scheme in the golden wiring table, end-to-end over a cellular trace;
* an outage-heavy trace driving retransmissions and RTO expiry;
* the golden-trace scenario itself (ABC + Cubic sharing one bottleneck);
* metro cells (trace-driven and square-wave, churn on, mixed schemes).

Every comparison is exact equality on full per-packet float lists — no
tolerances anywhere.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cc import make_cc
from repro.cellular.synthetic import lte_showcase_trace
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.experiments.runner import run_single_bottleneck
from repro.metro.cell import metro_cell
from repro.simulator import fastpath
from repro.simulator.scenario import Scenario

from test_scheme_golden import GOLDEN_WIRING


def flow_summary(flow) -> dict:
    """Everything a flow reports, including full per-packet float lists."""
    stats = flow.stats
    sender = flow.sender
    return {
        "bytes_received": stats.bytes_received,
        "recv_times": list(stats.recv_times),
        "sent_times": list(stats.sent_times),
        "sizes": list(stats.sizes),
        "queuing_delays": list(stats.queuing_delays),
        "first_recv_time": stats.first_recv_time,
        "last_recv_time": stats.last_recv_time,
        "packets_sent": sender.packets_sent,
        "retransmissions": sender.retransmissions,
        "timeouts": sender.timeouts,
        "acks_received": sender.acks_received,
        "bytes_acked": sender.bytes_acked,
        "completion_time": sender.completion_time,
    }


def scenario_summary(scenario, links) -> dict:
    return {
        "flows": [flow_summary(flow) for flow in scenario.flows],
        "drops": [link.dropped_packets for link in links],
        "delivered": [link.delivered_packets for link in links],
        "final_now": scenario.env.now,
    }


def both_modes(build_and_run) -> tuple:
    """Run a zero-argument scenario callable classically and batched."""
    with fastpath.override(False):
        classic = build_and_run()
    with fastpath.override(True):
        batched = build_and_run()
    return classic, batched


# ---------------------------------------------------------------------------
# Every paper scheme, end to end
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(GOLDEN_WIRING))
def test_scheme_runs_bit_identical(scheme):
    def run():
        result = run_single_bottleneck(
            scheme, lte_showcase_trace(duration=2.5, seed=7),
            rtt=0.08, duration=2.5, buffer_packets=150)
        # ``extra`` holds live simulation objects (the Flow handle), whose
        # identities differ run to run; the flow's full per-packet record is
        # compared through flow_summary instead.
        summary = {key: value
                   for key, value in dataclasses.asdict(result).items()
                   if key != "extra"}
        flow = result.extra.get("flow")
        if flow is not None:
            summary["flow"] = flow_summary(flow)
        return summary

    classic, batched = both_modes(run)
    assert classic == batched


# ---------------------------------------------------------------------------
# Outage-heavy trace: retransmission + RTO expiry paths
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["abc", "cubic", "bbr"])
def test_outage_trace_bit_identical(scheme):
    # A hand-built opportunity schedule with a 1.2 s outage: ACK clocking
    # stalls, the RTO fires, and recovery retransmits — the exact paths where
    # the lazy deadline timer and the classic handle machinery differ most.
    times = ([i * 0.004 for i in range(200)]            # 0.0 - 0.8 s
             + [2.0 + i * 0.004 for i in range(500)])   # 2.0 - 4.0 s

    def run():
        scenario = Scenario()
        link = scenario.add_cellular_link(list(times), name="outage-cell")
        scenario.add_flow(make_cc(scheme), [link], rtt=0.06, label=scheme)
        scenario.run(4.0)
        return scenario_summary(scenario, [link])

    classic, batched = both_modes(run)
    assert classic == batched
    assert classic["flows"][0]["timeouts"] >= 1, (
        "outage scenario no longer triggers an RTO; the differential lost "
        "its retransmission coverage")


# ---------------------------------------------------------------------------
# The golden-trace scenario (ABC + Cubic sharing an ABC bottleneck)
# ---------------------------------------------------------------------------
def test_golden_trace_scenario_bit_identical():
    from test_engine_golden_trace import DURATION, TRACE_SEED

    def run():
        trace = lte_showcase_trace(duration=DURATION, seed=TRACE_SEED)
        params = ABCParams()
        scenario = Scenario()
        link = scenario.add_cellular_link(
            trace, qdisc=ABCRouterQdisc(params=params, buffer_packets=100),
            name="cell")
        scenario.add_flow(make_cc("abc", params=params), [link], rtt=0.08,
                          label="abc")
        scenario.add_flow(make_cc("cubic"), [link], rtt=0.08, label="cubic")
        scenario.run(DURATION)
        return scenario_summary(scenario, [link])

    classic, batched = both_modes(run)
    assert classic == batched


# ---------------------------------------------------------------------------
# Metro cells: churn, mixed schemes, both cellular capacity models
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("link_spec,label", [
    (("square", 10e6, 24e6, 0.5), "square"),
    (30e6, "rate"),
], ids=["square-wave", "fixed-rate"])
def test_metro_cell_bit_identical(link_spec, label):
    def run():
        return metro_cell(mix="abc:0.6,cubic:0.3,bbr:0.1",
                          cell=f"diff-{label}", link_spec=link_spec, seed=3,
                          duration=4.0, arrival_rate=2.0)

    classic, batched = both_modes(run)
    assert classic == batched
    assert classic["offered_flows"] > 2


def test_metro_cell_trace_driven_bit_identical():
    trace = lte_showcase_trace(duration=4.0, seed=5)

    def run():
        return metro_cell(mix="abc:0.5,cubic:0.2,bbr:0.1,pcc:0.1,sprout:0.1",
                          cell="diff-trace", link_spec=trace, seed=1,
                          duration=4.0, arrival_rate=2.0)

    classic, batched = both_modes(run)
    assert classic == batched
