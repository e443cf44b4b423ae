"""Birkhoff normal forms and long-time action stability for
mode-truncated Hamiltonian PDEs.

Modules:
    modes     mode labels, the ball |j| <= r, pair and shell groups
    exact     exact Gaussian-rational arithmetic for the algebra checks
    poly      sparse polynomial algebra in oscillator variables
    norms     majorant / sampled tame norms
    spectra   potentials, Sturm-Liouville spectra, frequency tables
    resonance small divisors, near-resonance enumeration, measure estimates
    birkhoff  homological equations, Lie transforms, the normal form loop
    fields    compiled field evaluators for the integrator and transport
    dynamics  symplectic integration, observables, drift experiments
    cli       command line entry points
"""

__version__ = "0.1.0"
