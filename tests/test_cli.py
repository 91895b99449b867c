import hashlib
import json
import random
from collections import Counter
from datetime import date, datetime, timedelta, timezone

import pytest

from outbreakmon import cli
from outbreakmon.cli import (
    COMMANDS,
    DAILY_CSV_NAME,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMELINE,
    FILTERED_NAME,
    MANIFEST_NAME,
    PERIOD_CSV_NAME,
    RELEVANT_NAME,
    main,
)
from outbreakmon.corpus import load_corpus, load_labeled_set
from outbreakmon.svm import SvmModel, decision_value, load_model, predict, save_model
from outbreakmon.timeline import builtin_cdc_timeline, parse_timeline_file
from outbreakmon.vectorizer import _word_runs, vectorize

from oracles import (
    brute_bucket,
    brute_daily,
    brute_phrase_match,
    findall_tokenize,
    tfidf_by_hand,
)
from synthdata import (
    ANNOUNCEMENT_DATES,
    DECOY_TEMPLATES,
    RELEVANT_TEMPLATES,
    labeled_lines,
    record_line,
    stream_lines,
    table_replay_records,
)

# every file pipeline writes but the manifest, which hashes the inputs
DATA_OUTPUTS = (FILTERED_NAME, RELEVANT_NAME, PERIOD_CSV_NAME, DAILY_CSV_NAME)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.fixture()
def labeled_file(tmp_path):
    return write_lines(tmp_path / "labeled.jsonl", labeled_lines(40, 40))


@pytest.fixture()
def stream_file(tmp_path):
    return write_lines(tmp_path / "stream.jsonl", stream_lines(400))


class TestFilter:
    def test_happy_path(self, tmp_path, stream_file):
        out = tmp_path / "out"
        code = main(["filter", "--input", str(stream_file), "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        filtered = load_corpus((out / FILTERED_NAME).open(encoding="utf-8"))
        assert 0 < len(filtered) < 400
        # decoys and relevant texts mention a phrase; noise never does
        assert all("salmonella" in r.text for r in filtered)

    def test_lenient_skips_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, stream_lines(3) + ["{broken"])
        out = tmp_path / "o"
        assert main(["filter", "--input", str(bad), "--output", str(out), "--quiet"]) == EXIT_OK

    def test_custom_keyword_file(self, tmp_path):
        # Phrases with separators, an underscore, a non-ASCII letter and
        # digits: the one compiled pattern must keep exactly the texts the
        # token-window oracle keeps, under this Python's Unicode tables. The
        # file replaces the built-in phrases, so "salmonella news" is dropped.
        phrases = ["AT&T", "Andrew & Williamson", "fat_boy", "Ça va", "x2 y3"]
        keywords = write_lines(tmp_path / "kw.txt", ["# custom", *phrases])
        spellings = [
            "AT&T", "at&t!", "(At&T)", "AT & T", "xAT&T", "AT&T&", "AT&Tx", "AT&T_",
            "Andrew & Williamson", "ANDREW  &\tWILLIAMSON", "andrew_&_williamson",
            "Andrew-&-Williamson", "andrew&williamson", "Andrew & Williamsons",
            "fat_boy", "FAT BOY", "fat-boy!", "fat\u00a0boy", "fatboy", "fat boys", "_fat__boy_",
            "Ça va", "ÇA VA?", "ça-va", "ça\u2028va", "cava", "Ç a va", "Ça vas",
            "x2 y3", "X2_Y3", "x2-y3.", "x2y3", "x² y³", "x2 y3z", "ｘ２ y3", "salmonella news"]
        instant = datetime(2015, 9, 4, 12, tzinfo=timezone.utc)
        lines = {record_line(f"s{i}-{j}", instant, text): text
                 for i, spelling in enumerate(spellings)
                 for j, text in enumerate((spelling, f"recall: {spelling} today"))}
        stream = write_lines(tmp_path / "s.jsonl", lines)
        out = tmp_path / "o"
        code = main(["filter", "--input", str(stream), "--keywords", str(keywords),
                     "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        kept = [line for line, text in lines.items() if brute_phrase_match(phrases, text)]
        assert 0 < len(kept) < len(lines)
        assert (out / FILTERED_NAME).read_text(encoding="utf-8") == "".join(
            line + "\n" for line in kept)


class TestTrain:
    def test_writes_model_and_reports_counts(self, tmp_path, labeled_file, capsys):
        model_path = tmp_path / "model.json"
        code = main(["train", "--labeled", str(labeled_file), "--model", str(model_path)])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "40 negative / 40 positive" in err
        model = load_model(model_path)
        assert model.training_meta.epochs_run >= 1

    def test_same_seed_byte_identical_model_files(self, tmp_path, labeled_file):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            assert main(["train", "--labeled", str(labeled_file), "--model", str(path),
                         "--seed", "42", "--quiet"]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestClassify:
    def test_training_texts_all_retained(self, tmp_path, model_file):
        base = datetime(2015, 9, 10, tzinfo=timezone.utc)
        stream = write_lines(
            tmp_path / "rel.jsonl",
            [record_line(f"r{i}", base, RELEVANT_TEMPLATES[i % len(RELEVANT_TEMPLATES)])
             for i in range(24)],
        )
        out = tmp_path / "o"
        code = main(["classify", "--input", str(stream), "--model", str(model_file),
                     "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        kept = load_corpus((out / RELEVANT_NAME).open(encoding="utf-8"))
        assert len(kept) == 24

    def test_decoys_dropped(self, tmp_path, model_file):
        base = datetime(2015, 9, 10, tzinfo=timezone.utc)
        stream = write_lines(
            tmp_path / "mix.jsonl",
            [record_line(f"d{i}", base, DECOY_TEMPLATES[i % len(DECOY_TEMPLATES)])
             for i in range(12)],
        )
        out = tmp_path / "o"
        assert main(["classify", "--input", str(stream), "--model", str(model_file),
                     "--output", str(out), "--quiet"]) == EXIT_OK
        kept = load_corpus((out / RELEVANT_NAME).open(encoding="utf-8"))
        assert len(kept) == 0

    def test_empty_input(self, tmp_path, model_file):
        stream = write_lines(tmp_path / "empty.jsonl", [])
        out = tmp_path / "o"
        code = main(["classify", "--input", str(stream), "--model", str(model_file),
                     "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        assert (out / RELEVANT_NAME).read_text() == ""


class TestScoreMemo:
    """run_classify scores each distinct text once; the output must not show it."""

    @pytest.fixture()
    def repeat_stream(self, tmp_path):
        # retweet-like: a few texts, relevant and decoy, each repeated verbatim
        texts = RELEVANT_TEMPLATES[:4] + DECOY_TEMPLATES[:3]
        rng = random.Random(8)
        base = datetime(2015, 9, 10, tzinfo=timezone.utc)
        return write_lines(tmp_path / "repeats.jsonl", [
            record_line(f"x{i}", base + timedelta(minutes=i), rng.choice(texts))
            for i in range(60)])

    @staticmethod
    def classify(tmp_path, model_file, stream, out_name="o"):
        out = tmp_path / out_name
        assert main(["classify", "--input", str(stream), "--model", str(model_file),
                     "--output", str(out), "--quiet"]) == EXIT_OK
        return (out / RELEVANT_NAME).read_bytes()

    @staticmethod
    def memo_free_relevant(model_file, stream):
        model = load_model(model_file)
        with stream.open(encoding="utf-8") as fh:
            corpus = load_corpus(fh)
        kept = [r for r in corpus if predict(model, vectorize(model.vectorizer, r.text)) == 1]
        assert 0 < len(kept) < len(corpus)
        return "".join(r.to_line() + "\n" for r in kept).encode("utf-8")

    @staticmethod
    def spy_on_scorer(monkeypatch):
        # classify must score through the vectorize and predict that cli looks
        # up; the benchmark's tracer times each layer there.
        texts, vectors = [], []

        def vectorize_spy(model, text):
            texts.append(text)
            return vectorize(model, text)

        def predict_spy(model, vector):
            vectors.append(vector)
            return predict(model, vector)

        monkeypatch.setattr(cli, "vectorize", vectorize_spy)
        monkeypatch.setattr(cli, "predict", predict_spy)
        return texts, vectors

    def test_vectorizes_each_distinct_text_once(self, tmp_path, model_file, repeat_stream,
                                                monkeypatch):
        vectorized, scored = self.spy_on_scorer(monkeypatch)
        self.classify(tmp_path, model_file, repeat_stream)
        with repeat_stream.open(encoding="utf-8") as fh:
            texts = [r.text for r in load_corpus(fh)]
        assert sorted(vectorized) == sorted(set(texts))
        assert len(vectorized) == len(scored) == 7
        assert any(vector.entries for vector in scored)
        assert len(texts) == 60

    def test_a_repeated_vocabulary_token_scores_by_the_formula(
            self, tmp_path, model_file, labeled_file, monkeypatch):
        # a repeated token takes vectorize's count branch; "salmonella" is in
        # every labeled text, so its idf is 0 and its repeat alone does not
        texts = ["Recall of cucumbers: cucumbers linked to Salmonella Poona",
                 "Salmonella, salmonella and #salmonella",
                 "cdc cdc cdc: outbreak 2015 2015"]
        base = datetime(2015, 9, 10, tzinfo=timezone.utc)
        stream = write_lines(tmp_path / "counts.jsonl", [
            record_line(f"c{i}", base + timedelta(minutes=i), text)
            for i, text in enumerate(texts)])
        vectorized, scored = self.spy_on_scorer(monkeypatch)
        self.classify(tmp_path, model_file, stream)
        assert sorted(vectorized) == sorted(texts)
        with labeled_file.open(encoding="utf-8") as fh:
            collection = [findall_tokenize(ex.record.text) for ex in load_labeled_set(fh)]
        vocabulary = load_model(model_file).vectorizer.vocabulary
        for text, vector in zip(vectorized, scored):
            [want] = tfidf_by_hand(collection, [findall_tokenize(text)])
            assert vector.entries == tuple(
                sorted((vocabulary.terms[term], value) for term, value in want.items()))
        assert any(count > 1 and run in vocabulary.index_idf
                   for text in texts for run, count in Counter(_word_runs(text)).items())

    def test_output_equals_scoring_every_record(self, tmp_path, model_file, repeat_stream):
        assert self.classify(tmp_path, model_file, repeat_stream) \
            == self.memo_free_relevant(model_file, repeat_stream)

    def test_output_unchanged_when_the_memo_evicts(self, tmp_path, model_file,
                                                   repeat_stream, monkeypatch):
        monkeypatch.setattr(cli, "SCORE_MEMO_LIMIT", 2)
        _, scored = self.spy_on_scorer(monkeypatch)
        assert self.classify(tmp_path, model_file, repeat_stream) \
            == self.memo_free_relevant(model_file, repeat_stream)
        assert 7 < len(scored) < 60

    def test_no_verdict_outlives_its_model(self, tmp_path, model_file, repeat_stream):
        # A second model whose bias keeps only the top-scoring text: the same
        # texts, scored again in the same process, must get its verdicts.
        model = load_model(model_file)
        with repeat_stream.open(encoding="utf-8") as fh:
            texts = {r.text for r in load_corpus(fh)}
        values = sorted(decision_value(model, vectorize(model.vectorizer, text))
                        for text in texts)
        strict = SvmModel(model.weights, model.bias - (values[-1] + values[-2]) / 2,
                          model.vectorizer, model.training_meta)
        strict_file = tmp_path / "strict.json"
        save_model(strict, strict_file)
        first = self.classify(tmp_path, model_file, repeat_stream, "first")
        second = self.classify(tmp_path, strict_file, repeat_stream, "second")
        assert first == self.memo_free_relevant(model_file, repeat_stream)
        assert second == self.memo_free_relevant(strict_file, repeat_stream)
        assert first != second


class TestReport:
    def _classified_file(self, tmp_path, count=50):
        base = datetime(2015, 9, 5, tzinfo=timezone.utc)
        return write_lines(
            tmp_path / "classified.jsonl",
            [record_line(f"c{i}", base + timedelta(days=i % 10, minutes=i), "salmonella news")
             for i in range(count)],
        )

    def test_writes_both_tables_and_prints_period_table(self, tmp_path, capsys):
        classified = self._classified_file(tmp_path)
        out = tmp_path / "o"
        code = main(["report", "--input", str(classified), "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("period_start,period_end,tweet_count")
        assert (out / PERIOD_CSV_NAME).read_text() == stdout
        assert (out / DAILY_CSV_NAME).read_text().startswith("date,count")

    def test_figure_range_produces_fifty_daily_rows(self, tmp_path, capsys):
        classified = self._classified_file(tmp_path)
        out = tmp_path / "o"
        code = main(["report", "--input", str(classified), "--output", str(out),
                     "--daily-start", "2015-09-01", "--daily-end", "2015-10-20", "--quiet"])
        assert code == EXIT_OK
        daily = (out / DAILY_CSV_NAME).read_text().splitlines()
        assert len(daily) == 1 + 50

    def test_final_cutoff_excludes_late_tweets(self, tmp_path):
        late = datetime(2016, 4, 2, tzinfo=timezone.utc)
        classified = write_lines(
            tmp_path / "c.jsonl",
            [record_line("in", datetime(2016, 3, 20, tzinfo=timezone.utc), "salmonella"),
             record_line("out", late, "salmonella")],
        )
        out = tmp_path / "o"
        code = main(["report", "--input", str(classified), "--output", str(out),
                     "--final-cutoff", "2016-03-31", "--quiet"])
        assert code == EXIT_OK
        period_rows = (out / PERIOD_CSV_NAME).read_text().splitlines()
        assert period_rows[-1] == "2016-03-18,,1"

    def test_final_cutoff_trims_the_daily_table_and_its_span(self, tmp_path, model_file):
        instants = [datetime(2016, 3, day, 12, tzinfo=timezone.utc) for day in (20, 20, 25)]
        instants.append(datetime(2016, 4, 2, tzinfo=timezone.utc))
        stream = write_lines(tmp_path / "s.jsonl", [
            record_line(f"r{i}", instant, RELEVANT_TEMPLATES[0])
            for i, instant in enumerate(instants)])
        cutoff = ["--final-cutoff", "2016-03-31", "--quiet"]
        out = tmp_path / "report"
        assert main(["report", "--input", str(stream), "--output", str(out), *cutoff]) == EXIT_OK
        daily = (out / DAILY_CSV_NAME).read_text().splitlines()
        # the default span ends on the last record day on or before the cutoff
        assert (len(daily), daily[1], daily[-1]) == (1 + 6, "2016-03-20,2", "2016-03-25,1")
        assert main(["report", "--input", str(stream), "--output", str(out), *cutoff,
                     "--daily-end", "2016-04-05"]) == EXIT_OK
        assert "2016-04-02,0" in (out / DAILY_CSV_NAME).read_text().splitlines()

        out = tmp_path / "pipeline"
        assert main(["pipeline", "--input", str(stream), "--model", str(model_file),
                     "--output", str(out), *cutoff]) == EXIT_OK
        report = json.loads((out / MANIFEST_NAME).read_text())["stages"]["report"]
        assert report["input_records"] == 4  # every record was classified relevant
        assert report["excluded_after_cutoff"] == 1
        assert (report["daily_days"], report["daily_total"]) == (6, 3)

    @pytest.mark.parametrize("stamps, cutoff, start, end, rejected", [
        # the generated stream cut inside its data, with a daily window around the cut
        (None, "2015-09-29", "2015-09-20", "2015-10-05", 0),
        # calendar edges, each converted by the form this Python selects;
        # strptime refuses a common-year Feb 29 and hour 24
        (["2016-02-29T23:59:59Z", "2015-12-31T23:59:59Z", "2015-09-22T00:00:00Z",
          "0001-01-01T00:00:00Z", "2015-02-29T12:00:00Z", "2015-09-21T24:00:00Z",
          "9999-12-31T23:59:59Z"], None, "2015-09-20", "2016-03-01", 2),
    ], ids=["cutoff", "calendar-edges"])
    def test_tables_equal_the_brute_scans(self, tmp_path, stream_file, capsys, stamps, cutoff,
                                          start, end, rejected):
        stream = stream_file if stamps is None else write_lines(tmp_path / "edges.jsonl", [
            json.dumps({"id": f"e{stamp}", "timestamp": stamp, "text": "salmonella cucumbers"},
                       separators=(",", ":"))
            for stamp in stamps])
        out = tmp_path / "o"
        argv = ["report", "--input", str(stream), "--daily-start", start, "--daily-end", end,
                "--output", str(out), "--quiet"]
        assert main(argv + (["--final-cutoff", cutoff] if cutoff else [])) == EXIT_OK
        stdout, stderr = capsys.readouterr()

        instants, warnings = [], []
        for line_no, line in enumerate(stream.read_text(encoding="utf-8").splitlines(), 1):
            raw = json.loads(line)["timestamp"]
            try:
                instants.append(datetime.strptime(raw, "%Y-%m-%dT%H:%M:%SZ")
                                .replace(tzinfo=timezone.utc))
            except ValueError:
                warnings.append(f"WARNING rejected line {line_no}: timestamp {raw!r} is not in "
                                "YYYY-MM-DDTHH:MM:SSZ form (expected e.g. 2015-09-04T12:00:00Z)\n")
        kept = [t for t in instants if cutoff is None or t.date() <= date.fromisoformat(cutoff)]
        assert len(warnings) == rejected and kept
        if cutoff:  # a cut inside the data
            assert len(kept) < len(instants)
        starts = ["", *(day.isoformat() for day in ANNOUNCEMENT_DATES)]
        periods = "period_start,period_end,tweet_count\n" + "".join(
            f"{s},{e},{n}\n"
            for s, e, n in zip(starts, starts[1:] + [""], brute_bucket(ANNOUNCEMENT_DATES, kept)))
        days = "date,count\n" + "".join(
            f"{day.isoformat()},{n}\n" for day, n in brute_daily(
                kept, date.fromisoformat(start), date.fromisoformat(end)))
        assert (stdout, stderr) == (periods, "".join(warnings))
        assert (out / PERIOD_CSV_NAME).read_text() == periods
        assert (out / DAILY_CSV_NAME).read_text() == days


class TestPipeline:
    def test_end_to_end_artifacts_and_manifest(self, tmp_path, model_file, stream_file):
        out = tmp_path / "out"
        code = main(["pipeline", "--input", str(stream_file), "--model", str(model_file),
                     "--output", str(out), "--quiet"])
        assert code == EXIT_OK
        for name in (FILTERED_NAME, RELEVANT_NAME, PERIOD_CSV_NAME, DAILY_CSV_NAME,
                     MANIFEST_NAME):
            assert (out / name).exists(), name
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        stages = manifest["stages"]
        assert stages["filter"]["input_records"] == 400
        assert stages["filter"]["kept"] == stages["classify"]["input_records"]
        assert stages["classify"]["relevant"] == stages["report"]["input_records"]
        assert stages["report"]["period_total"] == stages["report"]["input_records"]
        assert manifest["version"] == 2
        assert manifest["inputs"] == {
            "input": hashlib.sha256(stream_file.read_bytes()).hexdigest(),
            "keywords": None,
            "model": hashlib.sha256(model_file.read_bytes()).hexdigest(),
            "timeline": None,
        }

    @pytest.mark.parametrize("strictness", [[], ["--strict"]])
    def test_year_below_1000_keeps_every_stage_count(self, tmp_path, model_file, strictness):
        # each stage re-parses the file the previous stage wrote, so a year
        # written back without its zero padding would be dropped or abort
        lines = [json.dumps({"id": f"y{i}", "timestamp": f"0999-01-0{i + 1}T12:00:00Z",
                             "text": RELEVANT_TEMPLATES[i]}) for i in range(3)]
        stream = write_lines(tmp_path / "old.jsonl", lines)
        out = tmp_path / "out"
        code = main(["pipeline", "--input", str(stream), "--model", str(model_file),
                     "--output", str(out), "--quiet", *strictness])
        assert code == EXIT_OK
        stages = json.loads((out / MANIFEST_NAME).read_text())["stages"]
        assert [stages[name]["input_records"] for name in ("filter", "classify", "report")] \
            == [3, 3, 3]
        assert stages["report"]["period_total"] == 3
        assert [stages[name]["rejected_lines"] for name in ("filter", "classify", "report")] \
            == [0, 0, 0]
        assert '"timestamp":"0999-01-01T12:00:00Z"' in (out / RELEVANT_NAME).read_text()

    @pytest.mark.parametrize("failure, code", [
        ("model", EXIT_MODEL), ("timeline", EXIT_TIMELINE), ("keywords", EXIT_PARSE),
        ("daily", EXIT_IO), ("duplicate", EXIT_PARSE)])
    def test_failed_run_leaves_the_previous_outputs(self, tmp_path, model_file, stream_file,
                                                   capsys, failure, code):
        out = tmp_path / "out"
        assert main(["pipeline", "--input", str(stream_file), "--model", str(model_file),
                     "--output", str(out), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(before) == 5

        broken = tmp_path / "broken"
        broken.write_text({
            "model": "not a model",
            "timeline": "date,kind,new_ill,cumulative_ill,states,note\n"
                        "2015-09-04,announcement,,341,,\n2015-09-09,announcement,,300,,\n",
            "keywords": "# only comments\n",
            "daily": "",
            "duplicate": "",
        }[failure], encoding="utf-8")
        extra = {
            "model": ["--model", str(broken)],
            "timeline": ["--timeline", str(broken)],
            "keywords": ["--keywords", str(broken)],
            "daily": ["--daily-start", "2015-10-01", "--daily-end", "2015-09-01"],
            "duplicate": ["--strict"],
        }[failure]
        lines = stream_lines(100, seed=3)
        if failure == "duplicate":
            # the last line repeats an id: the abort comes after filter has
            # begun to stream its output
            lines.append(lines[0])
        other_stream = write_lines(tmp_path / "other.jsonl", lines)
        # into the directory holding the previous run, and into a new path
        fresh = tmp_path / "fresh" / "out"
        for target in (out, fresh):
            assert main(["pipeline", "--input", str(other_stream), "--model", str(model_file),
                         "--output", str(target), "--quiet", *extra]) == code
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert not fresh.parent.exists()
        if failure == "duplicate":
            assert capsys.readouterr().err.count("line 101: duplicate id 's0'") == 2

    @staticmethod
    def run(capsys, out, *argv, flag=True):
        """pipeline's standard output and the bytes of each file it wrote into ``out``,
        which ``--output`` names unless ``flag`` is false (a config file names it)."""
        output = ["--output", str(out)] if flag else []
        assert main(["pipeline", *argv, *output, "--quiet"]) == EXIT_OK
        return capsys.readouterr().out, {path.name: path.read_bytes() for path in out.iterdir()}

    def test_rerun_is_byte_identical(self, tmp_path, model_file, stream_file, capsys):
        argv = ["--input", str(stream_file), "--model", str(model_file)]
        # the same settings again, and then from a config file
        config = write_lines(tmp_path / "run.conf", [
            f"input = {stream_file}", f"model = {model_file}", f"output = {tmp_path / 'c'}"])
        first = self.run(capsys, tmp_path / "a", *argv)
        assert sorted(first[1]) == sorted(COMMANDS["pipeline"][2])
        assert self.run(capsys, tmp_path / "b", *argv) == first
        assert self.run(capsys, tmp_path / "c", "--config", str(config), flag=False) == first

    @staticmethod
    def manifest(tmp_path, out_name, model, stream):
        out = tmp_path / out_name
        assert main(["pipeline", "--input", str(stream), "--model", str(model),
                     "--output", str(out), "--quiet"]) == EXIT_OK
        return json.loads((out / MANIFEST_NAME).read_text())

    def test_two_models_at_one_path_give_different_manifests(self, tmp_path, model_file,
                                                            labeled_file, stream_file):
        first = self.manifest(tmp_path, "a", model_file, stream_file)
        assert main(["train", "--labeled", str(labeled_file), "--model", str(model_file),
                     "--c-param", "0.1", "--quiet"]) == EXIT_OK
        second = self.manifest(tmp_path, "b", model_file, stream_file)
        assert first["config_hash"] == second["config_hash"]
        assert first["inputs"]["model"] != second["inputs"]["model"]
        assert first["inputs"]["input"] == second["inputs"]["input"]

    def test_one_model_under_two_names_hashes_equal(self, tmp_path, model_file, stream_file):
        copy = tmp_path / "renamed.json"
        copy.write_bytes(model_file.read_bytes())
        first = self.manifest(tmp_path, "a", model_file, stream_file)
        second = self.manifest(tmp_path, "b", copy, stream_file)
        assert first["config_hash"] != second["config_hash"]
        assert first["inputs"] == second["inputs"]

    def test_keyword_and_timeline_files_are_hashed_and_rerun_identically(
            self, tmp_path, model_file, stream_file, capsys):
        # the built-in phrases and timeline, as --print-builtin writes them
        files = []
        for command in ("keywords", "timeline"):
            assert main([command, "--print-builtin"]) == EXIT_OK
            files.append(tmp_path / command)
            files[-1].write_text(capsys.readouterr().out, encoding="utf-8")
        argv = ["--input", str(stream_file), "--model", str(model_file)]
        file_argv = [*argv, "--keywords", str(files[0]), "--timeline", str(files[1])]
        first = self.run(capsys, tmp_path / "a", *file_argv)
        assert first == self.run(capsys, tmp_path / "b", *file_argv)
        # the built-in run's data; only the manifest names the two files
        stdout, outputs = self.run(capsys, tmp_path / "builtin", *argv)
        assert first[0] == stdout
        assert [first[1][name] for name in DATA_OUTPUTS] \
            == [outputs[name] for name in DATA_OUTPUTS]
        inputs = json.loads(first[1][MANIFEST_NAME])["inputs"]
        assert inputs["keywords"] == hashlib.sha256(files[0].read_bytes()).hexdigest()
        assert inputs["timeline"] == hashlib.sha256(files[1].read_bytes()).hexdigest()

    @pytest.mark.parametrize("restyle, compared", [
        # json.dumps defaults (", " and ": " separators, ASCII escapes) take
        # the full JSON parser instead of the compact-line path
        ("json-defaults", DATA_OUTPUTS),
        # a token outside the vocabulary that matches no phrase: a text's
        # vector depends only on its vocabulary terms with their counts and
        # on its highest token count
        ("zq9x", (PERIOD_CSV_NAME, DAILY_CSV_NAME)),
    ], ids=["json-defaults", "zq9x"])
    def test_restyled_stream_gives_the_same_tables(self, tmp_path, model_file, stream_file,
                                                   capsys, restyle, compared):
        objs = [json.loads(line) for line in stream_file.read_text(encoding="utf-8").splitlines()]
        restyled = write_lines(tmp_path / "restyled.jsonl", [
            json.dumps(obj) if restyle == "json-defaults" else
            json.dumps({**obj, "text": obj["text"] + " zq9x"}, ensure_ascii=False,
                       separators=(",", ":"))
            for obj in objs])
        model = ["--model", str(model_file)]
        stdout, outputs = self.run(capsys, tmp_path / "a", "--input", str(stream_file), *model)
        other_stdout, other = self.run(capsys, tmp_path / "b", "--input", str(restyled), *model)
        assert other_stdout == stdout
        assert [other[name] for name in compared] == [outputs[name] for name in compared]

    def test_never_mutates_input_files(self, tmp_path, model_file, stream_file):
        stream_before = stream_file.read_bytes()
        model_before = model_file.read_bytes()
        assert main(["pipeline", "--input", str(stream_file), "--model", str(model_file),
                     "--output", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert stream_file.read_bytes() == stream_before
        assert model_file.read_bytes() == model_before


class TestConfigFile:
    def test_config_supplies_paths_flags_win(self, tmp_path, stream_file):
        other_stream = write_lines(tmp_path / "other.jsonl", stream_lines(10, seed=2))
        out = tmp_path / "out"
        config = tmp_path / "run.cfg"
        config.write_text(
            f"# pipeline settings\ninput = {other_stream}\noutput = {out}\n"
            "strictness = lenient\n",
            encoding="utf-8",
        )
        assert main(["filter", "--config", str(config), "--quiet"]) == EXIT_OK
        ten = load_corpus((out / FILTERED_NAME).open(encoding="utf-8"))
        # flag overrides the config file's input
        assert main(["filter", "--config", str(config), "--input", str(stream_file),
                     "--quiet"]) == EXIT_OK
        four_hundred = load_corpus((out / FILTERED_NAME).open(encoding="utf-8"))
        assert len(four_hundred) > len(ten)

    def test_training_keys(self, tmp_path, labeled_file):
        model_path = tmp_path / "m.json"
        config = tmp_path / "train.cfg"
        config.write_text(
            f"labeled = {labeled_file}\nmodel = {model_path}\nseed = 7\nc = 2.0\n"
            "tolerance = 1e-6\nmax_epochs = 500\n",
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config), "--quiet"]) == EXIT_OK
        assert load_model(model_path).training_meta.C == 2.0


class TestBuiltinPrinters:
    def test_timeline_print_builtin_round_trips(self, capsys):
        assert main(["timeline", "--print-builtin"]) == EXIT_OK
        stdout = capsys.readouterr().out
        parsed = parse_timeline_file(stdout.splitlines())
        assert parsed == builtin_cdc_timeline()

    @pytest.mark.parametrize("command", ["timeline", "keywords"])
    def test_without_print_builtin_exits_2(self, capsys, command):
        assert main([command]) == EXIT_IO
        assert capsys.readouterr() == (
            "", f"ERROR bad arguments: {command}: nothing to do (use --print-builtin)\n")

    def test_keywords_print_builtin(self, capsys):
        assert main(["keywords", "--print-builtin"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.splitlines() == [
            "Salmonella",
            "Salmonella Poona",
            "Salmonella Tainted",
            "Contaminated Cucumbers",
            "Andrew & Williamson Fresh Produce",
            "Fat Boy Brand",
            "Mexican Cucumbers",
        ]


def test_table_replay_through_report_command(tmp_path, capsys):
    # Scaled-down stand-in for the full replay (the acceptance suite runs the
    # real one): three records per period row keeps this test fast.
    records = [r for r in table_replay_records()]
    by_period: dict[int, list] = {}
    bounds = [e.date for e in builtin_cdc_timeline().announcements()]
    for r in records:
        by_period.setdefault(brute_bucket(bounds, [r.timestamp]).index(1), []).append(r)
    sample = [r for period in sorted(by_period) for r in by_period[period][:3]]
    classified = write_lines(tmp_path / "c.jsonl", [r.to_line() for r in sample])
    out = tmp_path / "o"
    assert main(["report", "--input", str(classified), "--output", str(out),
                 "--quiet"]) == EXIT_OK
    rows = (out / PERIOD_CSV_NAME).read_text().splitlines()[1:]
    assert all(row.endswith(",3") for row in rows)
