"""Level-1 NMOS element with symmetric (bidirectional) conduction.

The four-terminal switch model of Fig. 9 consists of n-type MOSFETs whose
drain/source roles are not fixed: inside a lattice, current may flow through
a switch in either direction depending on which inputs are ON.  The level-1
equations are therefore evaluated after orienting the channel so the
higher-potential diffusion terminal acts as the drain; the analysis engine
linearizes them around the present Newton iterate with conductances
``gds``, ``gm`` and an equivalent current source (the standard MOSFET
companion model).

The bulk terminal is taken as grounded (as in the paper's circuit model) and
the body effect is absorbed in the threshold voltage of the extracted
parameters.

The model is written once, in :func:`evaluate_level1_arrays`: the analysis
engine evaluates whole device populations through it, and
:meth:`MOSFET.channel_current` reports one device's current through it.
The tests compare it with the same model written out in closed form.
"""

from __future__ import annotations

import numpy as np

from repro.fitting.level1 import Level1Parameters
from repro.spice.netlist import AnalysisState, Circuit


def evaluate_level1_arrays(vgs, vds, beta, vth_v, lambda_per_v, smoothing_v):
    """Vectorized smoothed level-1 evaluation for oriented channels.

    All arguments are arrays of equal length (one entry per device) with the
    channels already oriented so ``vds >= 0``.  Returns ``(ids, gm, gds)``
    arrays of the smoothed level-1 model: the effective overdrive
    ``veff = W * ln(1 + exp(x))`` with ``x = (vgs - vth) / W`` (exactly
    ``vgs - vth`` beyond ``x > 40``), then the triode or saturation square
    law with channel-length modulation.
    """
    overdrive = vgs - vth_v
    x = overdrive / smoothing_v
    # exp() is only ever taken of a clamped-from-above argument: beyond the
    # x > 40 guard the exact linear branch is used, so clamping cannot leak
    # into the result; below -40 exp underflows harmlessly to 0.  The deep
    # cutoff tail needs no branch of its own: for ex below ~4e-18,
    # log1p(ex) and ex/(1+ex) round to exactly ex in doubles, so the smooth
    # branch already gives veff = W * exp(x) and dveff = exp(x).
    ex = np.exp(np.minimum(x, 45.0))
    veff = smoothing_v * np.log1p(ex)
    dveff = ex / (1.0 + ex)
    linear = x > 40.0
    if linear.any():
        veff = np.where(linear, overdrive, veff)
        dveff = np.where(linear, 1.0, dveff)

    clm = 1.0 + lambda_per_v * vds
    triode = vds <= veff
    body = np.where(triode, veff * vds - 0.5 * vds * vds, 0.5 * veff * veff)
    beta_body = beta * body
    ids = beta_body * clm
    gm = beta * np.where(triode, vds, veff) * clm * dveff
    # beta * body * lambda is the whole saturation gds and the CLM term of
    # the triode gds.
    body_clm = beta_body * lambda_per_v
    gds = np.where(triode, beta * (veff - vds) * clm + body_clm, body_clm)
    return ids, gm, gds


class MOSFET:
    """A level-1 NMOS transistor.

    Parameters
    ----------
    circuit, name:
        As for the other elements.
    drain, gate, source:
        Node names of the three active terminals (bulk is ground).
    parameters:
        The :class:`~repro.fitting.level1.Level1Parameters` to use; typically
        the Type A or Type B parameter set extracted from the TCAD data.
    """

    #: Newton-step regulariser of the channel companion model, not a
    #: physical conductance.  The 10 nS is added to ``gds`` in the Jacobian
    #: and subtracted back out of the companion current ``i_eq = ids -
    #: gm*vgs - gds*vds`` (which uses the same ``gds``), so it damps each
    #: Newton step but carries no current at the fixed point: converged
    #: solutions are those of the bare level-1 channel.  Floating nodes are
    #: anchored by the analyses' node-to-ground ``gmin``, not by this.
    CHANNEL_GMIN = 1e-8

    def __init__(
        self,
        circuit: Circuit,
        name: str,
        drain: str,
        gate: str,
        source: str,
        parameters: Level1Parameters,
    ):
        self.name = name
        self.parameters = parameters
        self._drain = circuit.node(drain)
        self._gate = circuit.node(gate)
        self._source = circuit.node(source)
        self._drain_name = drain
        self._gate_name = gate
        self._source_name = source
        circuit.add(self)

    @property
    def nodes(self) -> tuple:
        return (self._drain_name, self._gate_name, self._source_name)

    # ------------------------------------------------------------------ #
    # device evaluation
    # ------------------------------------------------------------------ #

    #: Smoothing voltage of the cutoff transition (2 * n * kT/q at 300 K).
    #: The hard level-1 cutoff is replaced by a smooth effective overdrive
    #: ``veff = W * ln(1 + exp((Vgs - Vth)/W))`` which (a) models the
    #: sub-threshold tail the real device has and (b) keeps the Newton
    #: iteration's Jacobian continuous so lattice circuits with many devices
    #: sitting right at cutoff converge quadratically.
    SMOOTHING_V = 0.062

    def channel_current(self, state: AnalysisState) -> float:
        """Drain-to-source channel current at the given state [A].

        Positive when conventional current flows from the ``drain`` node to
        the ``source`` node.
        """
        vd = state.voltage(self._drain)
        vg = state.voltage(self._gate)
        vs = state.voltage(self._source)
        p = self.parameters
        # Orient the channel as the engine does: the higher diffusion
        # terminal acts as the drain.
        ids, _, _ = evaluate_level1_arrays(
            np.array([vg - min(vd, vs)]),
            np.array([abs(vd - vs)]),
            p.beta,
            p.vth_v,
            p.lambda_per_v,
            self.SMOOTHING_V,
        )
        return float(ids[0]) if vd >= vs else -float(ids[0])

    def __repr__(self) -> str:
        return (
            f"MOSFET({self.name}, d={self._drain_name}, g={self._gate_name}, "
            f"s={self._source_name}, Vth={self.parameters.vth_v:g} V)"
        )
