"""Exact verification lab for conditional information inequalities.

The package computes Shannon measures from exact rational joint
distributions, decides support and product conditions that gate the
conditional Ingleton-type inequalities, certifies the inequalities with
exact rational error terms, and connects the entropy machinery to
biclique covers of colored bipartite graphs.

Every name is imported from its submodule (``entroplab.distributions``,
``conditions``, ``inequalities``, ``families``, ``graphs``, ``errors``,
``cli``); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
