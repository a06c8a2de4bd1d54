"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning a structured result
object with a ``report()`` method that prints the rows the paper reports.
``tests/test_goldens.py`` pins every artifact's numbers exactly and
``tests/test_experiments.py`` checks the paper's qualitative claims on the
returned structures.

===============================  =======================================
Module                           Paper content
===============================  =======================================
``table1_products``              Table I — products of the m x n lattice
``table2_devices``               Table II — device structures
``fig3_xor3``                    Fig. 3 — XOR3 on 3x4 and 3x3 lattices
``fig5to7_device_iv``            Figs. 5-7 — device I-V curves / Vth / on-off
``fig8_current_density``         Fig. 8 — current-density profiles
``fig9_switch_model``            Fig. 9 — six-MOSFET switch model
``fig10_curve_fit``              Fig. 10 — level-1 fit to the Id-Vd curve
``fig11_xor3_transient``         Fig. 11 — XOR3 lattice transient
``fig12_series_switches``        Fig. 12 — series-switch drive study
``variability_xor3``             Fig. 11 under Vth/beta process spread
===============================  =======================================
"""

from repro.experiments.table1_products import Table1Result, run_table1
from repro.experiments.table2_devices import Table2Result, run_table2
from repro.experiments.fig3_xor3 import Fig3Result, run_fig3
from repro.experiments.fig5to7_device_iv import DeviceIVResult, run_device_iv, run_all_device_iv
from repro.experiments.fig8_current_density import Fig8Result, run_fig8
from repro.experiments.fig9_switch_model import Fig9Result, run_fig9
from repro.experiments.fig10_curve_fit import Fig10Result, run_fig10
from repro.experiments.fig11_xor3_transient import Fig11Result, run_fig11
from repro.experiments.fig12_series_switches import (
    Fig12Result,
    run_fig12,
    run_fig12_drive_curves,
)
from repro.experiments.terminal_configurations import (
    ConfigurationSweepResult,
    run_terminal_configuration_sweep,
)
from repro.experiments.variability_xor3 import (
    VariabilityResult,
    run_variability_xor3,
)

__all__ = [
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
    "Fig3Result",
    "run_fig3",
    "DeviceIVResult",
    "run_device_iv",
    "run_all_device_iv",
    "Fig8Result",
    "run_fig8",
    "Fig9Result",
    "run_fig9",
    "Fig10Result",
    "run_fig10",
    "Fig11Result",
    "run_fig11",
    "Fig12Result",
    "run_fig12",
    "run_fig12_drive_curves",
    "ConfigurationSweepResult",
    "run_terminal_configuration_sweep",
    "VariabilityResult",
    "run_variability_xor3",
]
