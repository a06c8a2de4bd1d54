"""Level-1 NMOS element with symmetric (bidirectional) conduction.

The four-terminal switch model of Fig. 9 consists of n-type MOSFETs whose
drain/source roles are not fixed: inside a lattice, current may flow through
a switch in either direction depending on which inputs are ON.  The element
therefore evaluates the level-1 equations after orienting the channel so the
higher-potential diffusion terminal acts as the drain, and linearizes around
the present Newton iterate with conductances ``gds``, ``gm`` and an
equivalent current source (the standard MOSFET companion model).

The bulk terminal is taken as grounded (as in the paper's circuit model) and
the body effect is absorbed in the threshold voltage of the extracted
parameters.

The scalar :meth:`MOSFET._evaluate` / :meth:`MOSFET.stamp` pair is the
reference (and compatibility) path; the analysis engine evaluates whole
device populations at once through :func:`evaluate_level1_arrays`, which
mirrors the scalar math element-wise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fitting.level1 import Level1Parameters
from repro.spice.netlist import AnalysisState, Circuit, MNASystem


def evaluate_level1_arrays(vgs, vds, beta, vth_v, lambda_per_v, smoothing_v):
    """Vectorized smoothed level-1 evaluation for oriented channels.

    All arguments are arrays of equal length (one entry per device) with the
    channels already oriented so ``vds >= 0``.  Returns ``(ids, gm, gds)``
    arrays, matching :meth:`MOSFET._evaluate` element-wise — including the
    smooth sub-threshold transition and its large-|x| guard branches.
    """
    overdrive = vgs - vth_v
    x = overdrive / smoothing_v
    # exp() is only ever taken of a clamped-from-above argument: beyond the
    # x > 40 guard the exact linear branch is used, so clamping cannot leak
    # into the result; below -40 exp underflows harmlessly to 0.  The scalar
    # path's explicit x < -40 branch needs no counterpart here: for ex below
    # ~4e-18, log1p(ex) and ex/(1+ex) round to exactly ex in doubles, so the
    # smooth branch already reproduces it bit-for-bit.
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
    # the triode gds (the scalar path's two branches).
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

    #: Conductance added in parallel with the channel for Newton robustness.
    #: 10 nS (100 Mohm) keeps floating diffusion nodes (dangling lattice-edge
    #: terminals) firmly anchored so the Newton iteration converges, while
    #: staying negligible against the kilo-ohm on-state channels and the
    #: paper's 500 kOhm pull-up (worst-case error well below a millivolt).
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

    def _effective_overdrive(self, vgs: float):
        """Smoothed overdrive and its derivative with respect to ``vgs``."""
        w = self.SMOOTHING_V
        x = (vgs - self.parameters.vth_v) / w
        if x > 40.0:
            return vgs - self.parameters.vth_v, 1.0
        if x < -40.0:
            return w * math.exp(x), math.exp(x)
        exp_x = math.exp(x)
        veff = w * math.log1p(exp_x)
        return veff, exp_x / (1.0 + exp_x)

    def _evaluate(self, vgs: float, vds: float):
        """Current and small-signal parameters for an oriented channel.

        Returns ``(ids, gm, gds)`` for ``vds >= 0``.
        """
        p = self.parameters
        lam = p.lambda_per_v
        beta = p.beta
        veff, dveff = self._effective_overdrive(vgs)
        clm = 1.0 + lam * vds
        if vds <= veff:
            body = veff * vds - 0.5 * vds * vds
            ids = beta * body * clm
            gm = beta * vds * clm * dveff
            gds = beta * (veff - vds) * clm + beta * body * lam
        else:
            body = 0.5 * veff * veff
            ids = beta * body * clm
            gm = beta * veff * clm * dveff
            gds = beta * body * lam
        return ids, gm, gds

    def channel_current(self, state: AnalysisState) -> float:
        """Drain-to-source channel current at the given state [A].

        Positive when conventional current flows from the ``drain`` node to
        the ``source`` node.
        """
        vd = state.voltage(self._drain)
        vg = state.voltage(self._gate)
        vs = state.voltage(self._source)
        if vd >= vs:
            ids, _, _ = self._evaluate(vg - vs, vd - vs)
            return ids
        ids, _, _ = self._evaluate(vg - vd, vs - vd)
        return -ids

    def stamp(self, system: MNASystem, state: AnalysisState) -> None:
        vd = state.voltage(self._drain)
        vg = state.voltage(self._gate)
        vs = state.voltage(self._source)

        if vd >= vs:
            drain, source = self._drain, self._source
            vgs, vds = vg - vs, vd - vs
            sign = 1.0
        else:
            drain, source = self._source, self._drain
            vgs, vds = vg - vd, vs - vd
            sign = -1.0

        ids, gm, gds = self._evaluate(vgs, vds)
        gds = gds + self.CHANNEL_GMIN

        # Companion model: I_eq flows drain -> source outside the linearization.
        i_eq = ids - gm * vgs - gds * vds

        system.add_conductance(drain, source, gds)
        system.add_transconductance(drain, source, self._gate, source, gm)
        if drain >= 0:
            system.add_current(drain, -i_eq)
        if source >= 0:
            system.add_current(source, i_eq)
        # The orientation (sign) only matters for reporting: the stamps above
        # are written in terms of the oriented drain/source nodes, so the
        # physical current direction is already correct.
        del sign

    def __repr__(self) -> str:
        return (
            f"MOSFET({self.name}, d={self._drain_name}, g={self._gate_name}, "
            f"s={self._source_name}, Vth={self.parameters.vth_v:g} V)"
        )
