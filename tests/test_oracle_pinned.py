"""Pinned oracle doubles: 76 outputs, value and estimate, compared by float.hex.

Any rewrite of the oracle's internals (series, prefactor, Gamma, the Airy
paths' Hankel expansion) must reproduce these bit for bit.  Each table was
generated once from the public API and is not regenerated when the oracle
changes: the first 60 stop at x = 44 (zeta = 194.6); the 16 Airy outputs
past zeta = 200 were generated before the Hankel path existed.  The one
exception was deliberate: when J's estimate became one ulp wherever Ziv's
test shows the double correctly rounded, 62 estimates were regenerated and
every value kept its double.
"""

import pytest

from besselcert import (Order, airy_ai_neg_prime_ref, airy_ai_neg_ref, bessel_j_prime_ref,
                        bessel_j_ref, gamma)

# (function, order or None, argument, value.hex(), abs_err_estimate.hex() or None)
PINNED = [
    ("J", -0.5, 1e-300, "0x1.f3327ecb25b11p+497", "0x1.0000000000000p+445"),
    ("J", -0.5, 0.01, "0x1.fe9edec7230c8p+2", "0x1.0000000000000p-50"),
    ("J", -0.5, 3.7, "-0x1.683c3adecefb2p-2", "0x1.0000000000000p-54"),
    ("J", -0.5, 61.25, "-0x1.277de44ac3a1cp-10", "0x1.0000000000000p-62"),
    ("J", -0.5, 200.0, "0x1.c2573eb9e64b8p-6", "0x1.0000000000000p-58"),
    ("J", 0.0, 1e-300, "0x1.0000000000000p+0", "0x1.0000000000000p-52"),
    ("J", 0.0, 0.01, "0x1.fffcb924fa352p-1", "0x1.0000000000000p-53"),
    ("J", 0.0, 3.7, "-0x1.98cfcd6c3801fp-2", "0x1.0000000000000p-54"),
    ("J", 0.0, 61.25, "-0x1.2b1d92f06ef14p-4", "0x1.0000000000000p-56"),
    ("J", 0.0, 200.0, "-0x1.f9daa1d15ffaep-7", "0x1.0000000000000p-59"),
    ("J", 0.3333333333333333, 1e-300, "0x1.8e25b0a55287fp-333", "0x1.0000000000000p-385"),
    ("J", 0.3333333333333333, 0.01, "0x1.882a95524389fp-3", "0x1.0000000000000p-55"),
    ("J", 0.3333333333333333, 3.7, "-0x1.3098686971ffdp-2", "0x1.0000000000000p-54"),
    ("J", 0.3333333333333333, 61.25, "-0x1.94a44feb31175p-4", "0x1.0000000000000p-56"),
    ("J", 0.3333333333333333, 200.0, "-0x1.4bb43dce19f89p-5", "0x1.0000000000000p-57"),
    ("J", 2.5, 1e-300, "0x0.0p+0", "0x0.0000000000001p-1022"),
    ("J", 2.5, 0.01, "0x1.1d926c7ffa54bp-21", "0x1.0000000000000p-73"),
    ("J", 2.5, 3.7, "0x1.d3d0faf586437p-2", "0x1.0000000000000p-54"),
    ("J", 2.5, 61.25, "0x1.a17425a9301c0p-4", "0x1.0000000000000p-56"),
    ("J", 2.5, 200.0, "0x1.90375faa9cc2dp-5", "0x1.0000000000000p-57"),
    ("J", 10.0, 1e-300, "0x0.0p+0", "0x0.0000000000001p-1022"),
    ("J", 10.0, 0.01, "0x1.b4a9835e4bd4cp-99", "0x1.0000000000000p-151"),
    ("J", 10.0, 3.7, "0x1.8bfc44b65a635p-14", "0x1.0000000000000p-66"),
    ("J", 10.0, 61.25, "-0x1.06d0f7cd3f522p-9", "0x1.0000000000000p-61"),
    ("J", 10.0, 200.0, "0x1.911fe40c67fc4p-10", "0x1.0000000000000p-62"),
    ("J", 45.1, 1e-300, "0x0.0p+0", "0x0.0000000000001p-1022"),
    ("J", 45.1, 0.01, "0x1.579fa802be646p-532", "0x1.0000000000000p-584"),
    ("J", 45.1, 3.7, "0x1.0f1f40cb211f9p-147", "0x1.0000000000000p-199"),
    ("J", 45.1, 61.25, "0x1.4f4d4722d4c11p-4", "0x1.0000000000000p-56"),
    ("J", 45.1, 200.0, "0x1.2a0734cc5b187p-9", "0x1.0000000000000p-61"),
    ("J", 60.0, 1e-300, "0x0.0p+0", "0x0.0000000000001p-1022"),
    ("J", 60.0, 0.01, "0x1.2d6f1127b5548p-731", "0x1.0000000000000p-783"),
    ("J", 60.0, 3.7, "0x1.06c2af80d39eap-219", "0x1.0000000000000p-271"),
    ("J", 60.0, 61.25, "0x1.2a1b4b9dd1b71p-3", "0x1.0000000000000p-55"),
    ("J", 60.0, 200.0, "0x1.17cf5f4e70f14p-5", "0x1.0000000000000p-57"),
    ("Jp", 0.5, 1e-08, "0x1.f2ad879c48c4dp+11", "0x1.8245b023346e8p-40"),
    ("Jp", 0.5, 7.3, "0x1.1af0c810d948fp-3", "0x1.e513e5a178684p-55"),
    ("Jp", 0.5, 150.0, "0x1.76736b9bec5c8p-5", "0x1.41eeee8559fe0p-56"),
    ("Jp", 2.5, 1e-08, "0x1.2b7230642df33p-43", "0x1.1b16589543769p-94"),
    ("Jp", 2.5, 7.3, "-0x1.25a3ecfbc05d8p-6", "0x1.4c0a4b7533849p-56"),
    ("Jp", 2.5, 150.0, "-0x1.7df4bb77620d2p-5", "0x1.45d20188c700ap-56"),
    ("Jp", 10.0, 1e-08, "0x1.46c00ab94cd49p-268", "0x1.293a7d06a8feap-319"),
    ("Jp", 10.0, 7.3, "0x1.06243fad247abp-5", "0x1.17c44c74fa7c3p-56"),
    ("Jp", 10.0, 150.0, "-0x1.f933715606127p-5", "0x1.c5a68f2d1d3b7p-56"),
    ("Jp", 45.1, 1e-08, "0x0.0p+0", "0x0.0000000000001p-1022"),
    ("Jp", 45.1, 7.3, "0x1.82aade1e33bcbp-101", "0x1.4942ae2a11546p-152"),
    ("Jp", 45.1, 150.0, "0x1.8693788a39828p-6", "0x1.5a48e81d597c4p-57"),
    ("Ai", None, 0.0, "0x1.6b8c7962715b8p-2", "0x1.7892ec68cc738p-54"),
    ("Ai", None, 1e-210, "0x1.6b8c7962715b8p-2", "0x1.7892ec68cc738p-54"),
    ("Ai", None, 1.0, "0x1.1235093d83da5p-1", "0x1.761b0c6c1ddd0p-51"),
    ("Ai", None, 44.0, "0x1.ecefe2dd736e1p-4", "0x1.529d8b18bc33dp-46"),
    ("Aip", None, 0.0, "0x1.0907f42b70f8bp-2", "0x1.1286cdf12ca2fp-54"),
    ("Aip", None, 1e-210, "0x1.0907f42b70f8bp-2", "0x1.1286cdf12ca2fp-54"),
    ("Aip", None, 1.0, "0x1.4cf103bcc6630p-7", "0x1.b6622d400c6e4p-50"),
    ("Aip", None, 44.0, "0x1.36a609388321ep+0", "0x1.1e665e599030ep-43"),
    ("gamma", None, 1e-50, "0x1.11b0ec57e649ap+166", None),
    ("gamma", None, 0.3333333333333333, "0x1.56e77539482f2p+1", None),
    ("gamma", None, 2.5, "0x1.544fa6d47b390p+0", None),
    ("gamma", None, 17.125, "0x1.b073e32d4dc07p+44", None),
    ("gamma", None, 63.9, "0x1.50f30416b0307p+289", None),
]

# Ai(-x) and its x-derivative where zeta = 2x^(3/2)/3 exceeds 200, the
# public J cap, as the series computed them
PINNED_PAST_ZETA_200 = [
    ("Ai", None, 44.85, "-0x1.0235b8ed84351p-7", "0x1.5a7da41f64addp-46"),
    ("Ai", None, 45.0, "0x1.6fce708d6a31fp-3", "0x1.5c76f1c6abcf8p-46"),
    ("Ai", None, 50.0, "-0x1.4b887ce1f571bp-3", "0x1.8b28db6505aa2p-46"),
    ("Ai", None, 60.0, "0x1.3e9e72227fce1p-4", "0x1.eb50730dd184bp-46"),
    ("Ai", None, 75.0, "0x1.90f3de4c1b07bp-5", "0x1.4179f58fc210ap-45"),
    ("Ai", None, 90.0, "-0x1.6f6051ccbbc2ep-3", "0x1.915094a451fcap-45"),
    ("Ai", None, 105.0, "0x1.606bba8c26bccp-3", "0x1.e3a7534a74969p-45"),
    ("Ai", None, 120.0, "-0x1.9f52c5145f921p-4", "0x1.1c3d302d86478p-44"),
    ("Aip", None, 44.85, "0x1.7589d2d0130a1p+0", "0x1.2acb31cc23c3fp-43"),
    ("Aip", None, 45.0, "0x1.a6e54f69f1b65p-1", "0x1.28e1c0d949568p-43"),
    ("Aip", None, 50.0, "-0x1.f01f6f9a8518fp-1", "0x1.62645b1eeab50p-43"),
    ("Aip", None, 60.0, "-0x1.7349d956226c8p+0", "0x1.e598e0349b5acp-43"),
    ("Aip", None, 75.0, "0x1.9aea0eb27a224p+0", "0x1.60453337f1c02p-42"),
    ("Aip", None, 90.0, "-0x1.67a819e2ffbd9p-2", "0x1.df27f929efbf3p-42"),
    ("Aip", None, 105.0, "-0x1.904679a4ac6afp-2", "0x1.37becbf2e5ce6p-41"),
    ("Aip", None, 120.0, "-0x1.8036be89a18dep+0", "0x1.86fdadb1171e7p-41"),
]

# The estimates as first pinned, for the outputs whose estimate moved when J's
# estimate became one ulp.  They serve only as test ids, so that each case
# keeps its name across that deliberate re-pin; the assertions use the tables.
FIRST_PINNED_ESTIMATE = {
    ('J', -0.5, 1e-300): '0x1.028a8d8169695p+446',
    ('J', -0.5, 0.01): '0x1.0875209a2f0c4p-49',
    ('J', -0.5, 3.7): '0x1.752449d85c808p-54',
    ('J', -0.5, 61.25): '0x1.32142054b9462p-62',
    ('J', -0.5, 200.0): '0x1.d279bf1e6f771p-58',
    ('J', 0.0, 1e-300): '0x1.092c04a82e8ccp-52',
    ('J', 0.0, 0.01): '0x1.092a5233b3998p-52',
    ('J', 0.0, 3.7): '0x1.a77566cc267e4p-54',
    ('J', 0.0, 61.25): '0x1.35d50ba11c42cp-56',
    ('J', 0.0, 200.0): '0x1.05fd2624a52a0p-58',
    ('J', 0.3333333333333333, 1e-300): '0x1.9c697993a6bd1p-385',
    ('J', 0.3333333333333333, 0.01): '0x1.963783061fa3fp-55',
    ('J', 0.3333333333333333, 3.7): '0x1.3b8223d1962a7p-54',
    ('J', 0.3333333333333333, 61.25): '0x1.a323aa5498e5bp-56',
    ('J', 0.3333333333333333, 200.0): '0x1.57969cfdb3df5p-57',
    ('J', 2.5, 0.01): '0x1.27cdacad05d73p-73',
    ('J', 2.5, 3.7): '0x1.e493c435e4503p-54',
    ('J', 2.5, 61.25): '0x1.b069028aac990p-56',
    ('J', 2.5, 200.0): '0x1.9e8e22d3d8341p-57',
    ('J', 10.0, 0.01): '0x1.c44e8e10b5668p-151',
    ('J', 10.0, 3.7): '0x1.9a2c39b0a9895p-66',
    ('J', 10.0, 61.25): '0x1.103b8135fa9ecp-61',
    ('J', 10.0, 200.0): '0x1.9f7efbd80f342p-62',
    ('J', 45.1, 0.01): '0x1.63ef5a9bf5709p-584',
    ('J', 45.1, 3.7): '0x1.18d5f8600305cp-199',
    ('J', 45.1, 61.25): '0x1.5b50a604c503ep-56',
    ('J', 45.1, 200.0): '0x1.34b4b450852afp-61',
    ('J', 60.0, 0.01): '0x1.383bcd54d17f3p-783',
    ('J', 60.0, 3.7): '0x1.102cb5ea2f7c3p-271',
    ('J', 60.0, 61.25): '0x1.34c98363a2837p-55',
    ('J', 60.0, 200.0): '0x1.21d5c663a4da0p-57',
    ('Jp', 0.5, 1e-08): '0x1.0245b023346e8p-39',
    ('Jp', 0.5, 7.3): '0x1.2513e5a178684p-54',
    ('Jp', 0.5, 150.0): '0x1.83dddd0ab3fc1p-56',
    ('Jp', 2.5, 1e-08): '0x1.362cb12a86ed2p-94',
    ('Jp', 2.5, 7.3): '0x1.0096360fbef76p-55',
    ('Jp', 2.5, 150.0): '0x1.8ba403118e014p-56',
    ('Jp', 10.0, 1e-08): '0x1.5274fa0d51fd5p-319',
    ('Jp', 10.0, 7.3): '0x1.42662f5cb597cp-56',
    ('Jp', 10.0, 150.0): '0x1.05a68f2d1d3b7p-55',
    ('Jp', 45.1, 7.3): '0x1.932316ecfa1dbp-152',
    ('Jp', 45.1, 150.0): '0x1.9491d03ab2f88p-57',
    ('Ai', None, 1.0): '0x1.927264ec426a1p-51',
    ('Ai', None, 44.0): '0x1.52d204191b5a1p-46',
    ('Aip', None, 1.0): '0x1.c29117b253c92p-50',
    ('Aip', None, 44.0): '0x1.1eaf3ec71a5d8p-43',
    ('Ai', None, 44.85): '0x1.5abba0d14b169p-46',
    ('Ai', None, 45.0): '0x1.5cca1af15d8b7p-46',
    ('Ai', None, 50.0): '0x1.8b636cf266d4cp-46',
    ('Ai', None, 60.0): '0x1.eb66228ef93d3p-46',
    ('Ai', None, 75.0): '0x1.419013532a6a8p-45',
    ('Ai', None, 90.0): '0x1.9163d2139be3dp-45',
    ('Ai', None, 105.0): '0x1.e3cbefd0d4da4p-45',
    ('Ai', None, 120.0): '0x1.1c47a4eca5404p-44',
    ('Aip', None, 44.85): '0x1.2b1559d216111p-43',
    ('Aip', None, 45.0): '0x1.290baa6dd8237p-43',
    ('Aip', None, 50.0): '0x1.6291671d076b7p-43',
    ('Aip', None, 60.0): '0x1.e5e168ed67b3ep-43',
    ('Aip', None, 75.0): '0x1.6064a42b1ab40p-42',
    ('Aip', None, 90.0): '0x1.df3c138bdf5fbp-42',
    ('Aip', None, 105.0): '0x1.37c645f018629p-41',
    ('Aip', None, 120.0): '0x1.87116c8be8473p-41',
}


def _case_id(case):
    kind, nu, x, value, estimate = case
    return "-".join(str(p) for p in
                    (kind, nu, x, value, FIRST_PINNED_ESTIMATE.get((kind, nu, x), estimate)))


_CALLS = {
    "J": lambda nu, x: bessel_j_ref(Order(nu), x),
    "Jp": lambda nu, x: bessel_j_prime_ref(Order(nu), x),
    "Ai": lambda nu, x: airy_ai_neg_ref(x),
    "Aip": lambda nu, x: airy_ai_neg_prime_ref(x),
}


@pytest.mark.parametrize("kind,nu,x,value,estimate", PINNED,
                         ids=[_case_id(c) for c in PINNED])
def test_oracle_output_is_pinned(kind, nu, x, value, estimate):
    if kind == "gamma":
        assert gamma(x).hex() == value
        return
    r = _CALLS[kind](nu, x)
    assert (r.value.hex(), r.abs_err_estimate.hex()) == (value, estimate)


@pytest.mark.parametrize("kind,nu,x,value,estimate", PINNED_PAST_ZETA_200,
                         ids=[_case_id(c) for c in PINNED_PAST_ZETA_200])
def test_airy_output_past_zeta_200_is_pinned(kind, nu, x, value, estimate):
    r = _CALLS[kind](nu, x)
    assert (r.value.hex(), r.abs_err_estimate.hex()) == (value, estimate)
