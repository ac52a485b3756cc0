"""photonpuf: physically unclonable functions from simulated laser speckle.

The package models the full chain of an optical PUF deployment in software:
a seeded speckle simulator stands in for the physical token and readout
optics, robust hashing condenses speckle images into binary keys, a BCH-based
fuzzy commitment turns noisy keys into exact authentication, and evaluation
helpers quantify robustness, unpredictability, unclonability and randomness.

Import names from the submodules: ``token`` (tokens, challenges, captures),
``hashing`` (keys), ``bch`` (the error-correcting code), ``protocol``
(enrollment records and authentication), ``campaign`` and ``metrics``
(evaluations), ``randomness`` (random-bit extraction and tests), ``service``
(the framed TCP device), ``errors`` (the parsers' exception types) and
``cli`` (the ``photonpuf`` command).
"""
