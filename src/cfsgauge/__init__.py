"""Causal fermion systems from Dirac sea ensembles, with gauge fixing.

Builds finite-dimensional causal fermion systems from plane-wave Dirac
ensembles in a periodic spatial box and provides the numerical machinery
around them: Krein-space linear algebra and polar decompositions, charts on
the manifold of fixed-signature operators with its Hilbert-Schmidt metric,
symmetric and transported wave charts with their coincidence check, closed
forms for the massless closed chain, and verification that the distinguished
gauge cancels local phase transformations.  Import every name from its
module, such as ``cfsgauge.krein``; the package root binds none.
"""
