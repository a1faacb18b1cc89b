"""Mermin-Klyshko Bell operators for n spin-s particles.

Constructs the recursive Bell expression, gives the exact classical bound
in closed form (one halved step of the pair recursion maps the four sign
pairs onto themselves, so the proof holds at any n), gives the quantum
maximum and its eigenvector in closed form, checked by one matvec reduced to
the four residue classes of b mod 4 (b parties at -s), and checks the
violation ratio 2**((n-1)/2) by formula and by simulated measurement.

Import the modules: ``spincore``, ``errors``, ``expansion``, ``classical``
and ``quantum`` do not import NumPy; the array layer ``operators`` does,
and ``measurement`` does only to draw an even-n estimate's binomial
agreement counts and inside its Born-rule reference, which no command
calls: at odd n every term's outcome is definite.  So a command that
samples no even n never imports NumPy.  A command that
does not sample loads ``cli``, ``spincore`` and ``errors``;
``expansion`` for every command but ``classical-max``, ``classical`` only
for the commands that print the classical bound and ``quantum`` only for
the eigenpair commands; and from the standard library it imports only
``argparse``, ``collections``, ``contextlib``, ``fractions``,
``functools``, ``gc``, ``itertools``, ``json``, ``math``, ``os``, ``re`` and
``sys``, plus ``csv`` and ``io`` for CSV output.  The records are
``collections.namedtuple`` subclasses, so such a command never imports
``inspect``.
"""

__version__ = "0.1.0"
