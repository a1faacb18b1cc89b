"""Mermin-Klyshko Bell operators for n spin-s particles.

Constructs the recursive Bell expression, certifies the exact classical
bound by an O(n) dynamic program over the pair recursion, gives the quantum
maximum and its eigenvector in closed form, checked by one matvec, and
checks the violation ratio 2**((n-1)/2) by formula and by simulated
measurement.

Import the modules: the exact layer ``spincore``, ``errors``, ``expansion``
and ``classical`` does not import NumPy; the array layer ``operators``,
``quantum`` and ``measurement`` does.
"""

__version__ = "0.1.0"
