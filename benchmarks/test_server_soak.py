"""Push fan-out soak on one event-loop worker (issue 7).

Runs the live scenario from :mod:`benchmarks.soak_scenario` and gates on
what must always hold, fast machine or slow: every subscriber level
keeps receiving frames (no starvation, no dropped connections), fan-out
latency stays bounded, and — the tentpole property — the number of
encodes per publication is bounded by the *distinct* lazily built
encodings (and their forms) in play, not by the number of clients.
"""

from soak_scenario import FAST, N_RAKES, Q16_FORMS, TICK_HZ, run_soak_scenario


def test_push_fanout_soak(record):
    result = run_soak_scenario()

    levels = result["levels"]
    assert levels, "no soak level ran (fd limit?)"
    assert result["subscribers_dropped"] == 0

    # v1 is built with the entry; q16 is the one encoding built on demand,
    # in two forms: the keyframe and the residual predicted from the rake
    # a subscriber holds.  One encode per rake per form per publication.
    assert result["distinct_encoded_variants"] == 1
    expected_encodes = N_RAKES * result["distinct_encoded_variants"] * Q16_FORMS
    for row in levels:
        # Every cohort keeps receiving frames the whole window.
        assert row["frames_delivered"] > 0, f"{row['clients']} clients starved"
        assert row["per_client_fps"] > 0.2 * TICK_HZ, (
            f"{row['clients']} clients: {row['per_client_fps']:.1f} fps "
            "— fan-out collapsed"
        )
        # Bounded latency, measured by repro.obs on the server.
        assert row["p99_fanout_seconds"] < 0.5
        # Encode-dedup: per publication the server builds each distinct
        # variant once per rake — client count must not appear here.
        assert row["encodes_per_publication"] <= expected_encodes + 0.5, (
            f"{row['encodes_per_publication']:.1f} encodes/publication "
            f"for {row['clients']} clients — the cache is leaking"
        )
        assert row["encodes_per_publication"] < row["clients"]

    # The headline scale gate: the full soak must hold >= 500 subscribed
    # clients on one worker (the smoke ladder stops lower by design).
    peak = levels[-1]
    if not FAST:
        assert peak["clients"] >= 500

    record(
        "server_soak",
        [
            f"tick rate: {TICK_HZ:.0f} Hz, rakes: {N_RAKES}, "
            f"variants: {result['distinct_encoded_variants']} (fast={FAST})",
            *(
                f"{row['clients']:5d} clients: "
                f"{row['per_client_fps']:6.1f} fps/client, "
                f"{row['encodes_per_publication']:.1f} encodes/pub, "
                f"p99 fan-out {row['p99_fanout_seconds'] * 1e3:.1f} ms, "
                f"{row['frames_shed']} shed"
                for row in levels
            ),
            f"at {peak['clients']} clients one publication costs the loop "
            f"{peak['mean_fanout_seconds'] / peak['clients'] * 1e6:.0f} "
            "us per subscriber",
        ],
    )
