#include "pagegen/olympic.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

namespace nagano::pagegen {
namespace {

using db::ChangeRecord;
using db::ColumnSpec;
using db::ColumnType;
using db::Database;
using db::Row;
using db::Value;

// Column indices, fixed by CreateSchema below.
namespace sports_col {
constexpr size_t kId = 0, kName = 1;
}
namespace events_col {
constexpr size_t kId = 0, kSportId = 1, kName = 2, kDay = 3, kVenue = 4,
                 kStatus = 5;
}
namespace athletes_col {
constexpr size_t kId = 0, kName = 1, kCountry = 2, kSportId = 3;
}
namespace countries_col {
constexpr size_t kCode = 0, kName = 1, kGolds = 2, kSilvers = 3, kBronzes = 4;
}
namespace results_col {
constexpr size_t kKey = 0, kEventId = 1, kRank = 2, kAthleteId = 3, kScore = 4;
}
namespace medals_col {
constexpr size_t kEventId = 0, kGold = 1, kSilver = 2, kBronze = 3;
}
namespace news_col {
constexpr size_t kId = 0, kDay = 1, kTitle = 2, kBody = 3, kSportId = 4;
}

constexpr const char* kSportNames[] = {
    "Alpine Skiing", "Biathlon",     "Cross-Country Skiing", "Curling",
    "Figure Skating", "Ice Hockey",  "Ski Jumping",          "Speed Skating",
    "Luge",           "Bobsleigh",   "Snowboarding",         "Freestyle Skiing",
};
constexpr const char* kVenueNames[] = {
    "White Ring", "M-Wave", "Big Hat", "Aqua Wing", "Hakuba", "Shiga Kogen",
    "Iizuna Kogen", "Karuizawa", "Nozawa Onsen", "Spiral",
};
constexpr const char* kCountryCodes[] = {
    "JPN", "USA", "GER", "NOR", "RUS", "CAN", "AUT", "KOR", "ITA", "FIN",
    "SUI", "FRA", "NED", "CHN", "SWE", "CZE", "GBR", "AUS", "UKR", "BLR",
    "KAZ", "BUL", "DEN", "POL", "ESP", "EST", "LAT", "SVK", "SLO", "HUN",
};

int64_t AsInt(const Value& v) { return std::get<int64_t>(v); }
double AsDouble(const Value& v) { return std::get<double>(v); }
const std::string& AsString(const Value& v) { return std::get<std::string>(v); }

std::optional<int64_t> ParseId(std::string_view page, std::string_view prefix) {
  if (!page.starts_with(prefix)) return std::nullopt;
  page.remove_prefix(prefix.size());
  int64_t id = 0;
  const auto [ptr, ec] = std::from_chars(page.data(), page.data() + page.size(), id);
  if (ec != std::errc{} || ptr != page.data() + page.size()) return std::nullopt;
  return id;
}

std::string ResultKey(int64_t event_id, int64_t rank) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "e%lld:r%lld", static_cast<long long>(event_id),
                static_cast<long long>(rank));
  return buf;
}

// --- language plumbing -------------------------------------------------------

// URL prefix: default language unprefixed, others "/<lang>".
std::string PagePrefix(std::string_view lang) {
  return lang == "en" ? std::string() : "/" + std::string(lang);
}
// Fragment namespace: "frag:" for the default, "frag:<lang>:" otherwise.
std::string FragPrefix(std::string_view lang) {
  return lang == "en" ? std::string("frag:")
                      : "frag:" + std::string(lang) + ":";
}

// Chrome strings per language — enough localization for the variants to be
// real, distinct documents (the 1998 site translated the full chrome).
struct Chrome {
  const char* day;
  const char* medal_standings;
  const char* todays_events;
  const char* latest_news;
  const char* no_events;
  const char* no_results;
  const char* schedule;
  const char* athletes;
  const char* results;
  const char* status;
};

const Chrome& ChromeFor(std::string_view lang) {
  static const Chrome kEnglish = {
      "Day",      "Medal standings", "Today's events", "Latest news",
      "No events scheduled today.", "No results yet.", "Schedule",
      "Athletes", "Results",         "Status"};
  static const Chrome kJapanese = {
      "第",        "メダル順位", "本日の競技", "最新ニュース",
      "本日の競技はありません。", "結果はまだありません。", "競技日程",
      "選手",      "結果",       "状況"};
  static const Chrome kFrench = {
      "Jour",     "Tableau des médailles", "Épreuves du jour",
      "Dernières nouvelles", "Pas d'épreuves aujourd'hui.",
      "Pas encore de résultats.", "Programme", "Athlètes", "Résultats",
      "Statut"};
  if (lang == "ja") return kJapanese;
  if (lang == "fr") return kFrench;
  return kEnglish;
}

// The chrome every page of `lang` shares — language code, URL prefix and
// localized labels — built once per language at registration and searched
// as the parent scope of each page's context. Immutable once built, so
// parallel renders share it freely.
std::shared_ptr<const TemplateContext> MakeChrome(std::string_view lang) {
  const Chrome& c = ChromeFor(lang);
  auto ctx = std::make_shared<TemplateContext>();
  ctx->Set("lang", lang)
      .Set("p", PagePrefix(lang))
      .Set("L_day", c.day)
      .Set("L_medals", c.medal_standings)
      .Set("L_today", c.todays_events)
      .Set("L_news", c.latest_news)
      .Set("L_noevents", c.no_events)
      .Set("L_noresults", c.no_results)
      .Set("L_schedule", c.schedule)
      .Set("L_athletes", c.athletes)
      .Set("L_results", c.results)
      .Set("L_status", c.status);
  return ctx;
}

// Languages for full page families (every page) and news-only extras.
std::vector<std::string> FullLanguages(const OlympicConfig& config) {
  return config.languages.empty() ? std::vector<std::string>{"en"}
                                  : config.languages;
}

// Data-node names. Generators and the change mapper must agree on these;
// they are language-independent — every language variant of a page depends
// on the same underlying data, which is how one scoring change fans out
// across all translations (the paper's 128-page cross-country update).
std::string EventNode(int64_t id) { return "events:" + std::to_string(id); }
std::string EventDayNode(int64_t day) { return "events:day:" + std::to_string(day); }
std::string EventSportNode(int64_t sid) {
  return "events:sport:" + std::to_string(sid);
}
std::string SportNode(int64_t id) { return "sports:" + std::to_string(id); }
std::string ResultsEventNode(int64_t eid) {
  return "results:event:" + std::to_string(eid);
}
std::string ResultsAthleteNode(int64_t aid) {
  return "results:athlete:" + std::to_string(aid);
}
std::string AthleteNode(int64_t id) { return "athletes:" + std::to_string(id); }
std::string AthleteCountryNode(std::string_view cc) {
  return "athletes:country:" + std::string(cc);
}
std::string CountryNode(std::string_view cc) {
  return "countries:" + std::string(cc);
}
std::string MedalsEventNode(int64_t eid) {
  return "medals:event:" + std::to_string(eid);
}
std::string MedalsCountryNode(std::string_view cc) {
  return "medals:country:" + std::string(cc);
}
constexpr const char* kMedalsAllNode = "medals:*";
std::string EventVenueNode(std::string_view venue) {
  return "events:venue:" + std::string(venue);
}
std::string VenueNode(std::string_view venue) {
  return "venues:" + std::string(venue);
}
constexpr const char* kVenuesAllNode = "venues:*";
std::string PhotoSubjectNode(std::string_view kind, std::string_view subject) {
  return "photos:" + std::string(kind) + ":" + std::string(subject);
}

// "White Ring" -> "White_Ring" for URLs; reversible because venue names
// never contain underscores (unlike hyphens — see "M-Wave").
std::string VenueSlug(std::string_view name) {
  std::string slug(name);
  for (char& c : slug) {
    if (c == ' ') c = '_';
  }
  return slug;
}
std::string VenueUnslug(std::string_view slug) {
  std::string name(slug);
  for (char& c : name) {
    if (c == '_') c = ' ';
  }
  return name;
}
std::string NewsNode(int64_t id) { return "news:" + std::to_string(id); }
constexpr const char* kNewsLatestNode = "news:latest";
constexpr const char* kNewsAllNode = "news:*";

// Compile-once holder for the built-in templates; each generator owns one
// as a function-local static.
class TemplateHolder {
 public:
  explicit TemplateHolder(const char* source) {
    auto compiled = CompiledTemplate::Compile(source);
    assert(compiled.ok() && "builtin template must compile");
    tmpl_ = std::make_unique<CompiledTemplate>(std::move(compiled).value());
  }

  // Renders into one buffer reserved a little above the size this template
  // produced last. A flat page keeps its buffer in the cache, so a buffer left more
  // than a quarter empty (a short page after a long one) is trimmed.
  std::string Render(const TemplateContext& context) const {
    std::string out;
    const size_t hint = size_hint_.load(std::memory_order_relaxed);
    out.reserve(hint + hint / 8);
    tmpl_->Render(context, out);
    size_hint_.store(out.size(), std::memory_order_relaxed);
    if (out.capacity() - out.size() > out.size() / 4) out.shrink_to_fit();
    return out;
  }

 private:
  std::unique_ptr<CompiledTemplate> tmpl_;
  mutable std::atomic<size_t> size_hint_{0};
};

// --- templates -------------------------------------------------------------

const char* const kWelcomeTmpl = R"(<html lang="{{lang}}"><head><title>Nagano 1998</title></head>
<body><h1>The XVIII Olympic Winter Games</h1>
<ul>{{#days}}<li><a href="{{p}}/day/{{day}}">{{L_day}} {{day}}</a></li>{{/days}}</ul>
<p><a href="{{p}}/medals">{{L_medals}}</a> | <a href="{{p}}/news">{{L_news}}</a></p>
</body></html>
)";

const char* const kDayHomeTmpl = R"(<html lang="{{lang}}"><head><title>{{L_day}} {{day}} - Nagano 1998</title></head>
<body><h1>{{L_day}} {{day}}</h1>
<h2>{{L_medals}}</h2>
{{{medal_table}}}
<h2>{{L_today}}</h2>
{{#events}}<div class="event">{{{summary}}}</div>
{{/events}}
{{^events}}<p>{{L_noevents}}</p>{{/events}}
<h2>{{L_news}}</h2>
{{{latest_news}}}
</body></html>
)";

const char* const kEventFragmentTmpl =
    R"(<div class="event-summary"><h3><a href="{{p}}/event/{{event_id}}">{{event_name}}</a></h3>
<p>{{L_status}}: {{status}} @ {{venue}}</p>
<ol>{{#top}}<li>{{athlete}} ({{country}}) - {{score}}</li>{{/top}}</ol>
{{^top}}<p>{{L_noresults}}</p>{{/top}}
{{{photos}}}</div>
)";

const char* const kEventPageTmpl = R"(<html lang="{{lang}}"><head><title>{{event_name}}</title></head>
<body><h1>{{event_name}}</h1>
<p>{{sport_name}} | {{L_day}} {{day}} | {{venue}} | {{L_status}}: {{status}}</p>
<table><tr><th>#</th><th>{{L_athletes}}</th><th></th><th>{{L_results}}</th></tr>
{{#results}}<tr><td>{{rank}}</td><td><a href="{{p}}/athlete/{{athlete_id}}">{{athlete}}</a></td><td><a href="{{p}}/country/{{country}}">{{country}}</a></td><td>{{score}}</td></tr>
{{/results}}</table>
{{^results}}<p>{{L_noresults}}</p>{{/results}}
{{#has_medals}}<p>Gold: {{gold}} Silver: {{silver}} Bronze: {{bronze}}</p>{{/has_medals}}
{{{photos}}}
</body></html>
)";

const char* const kSportPageTmpl = R"(<html lang="{{lang}}"><head><title>{{sport_name}}</title></head>
<body><h1>{{sport_name}}</h1>
{{#events}}<div>{{{summary}}}</div>
{{/events}}
</body></html>
)";

const char* const kMedalsFragmentTmpl =
    R"(<table class="medals"><tr><th></th><th>G</th><th>S</th><th>B</th><th>=</th></tr>
{{#rows}}<tr><td><a href="{{p}}/country/{{code}}">{{name}}</a></td><td>{{g}}</td><td>{{s}}</td><td>{{b}}</td><td>{{total}}</td></tr>
{{/rows}}</table>
)";

const char* const kMedalsPageTmpl = R"(<html lang="{{lang}}"><head><title>{{L_medals}}</title></head>
<body><h1>{{L_medals}}</h1>
{{{medal_table}}}
</body></html>
)";

const char* const kNewsFragmentTmpl =
    R"(<ul class="news">{{#articles}}<li><a href="{{p}}/news/{{id}}">{{title}}</a> ({{L_day}} {{day}})</li>{{/articles}}</ul>
)";

const char* const kNewsIndexTmpl = R"(<html lang="{{lang}}"><head><title>{{L_news}}</title></head>
<body><h1>{{L_news}}</h1>
<ul>{{#articles}}<li><a href="{{p}}/news/{{id}}">{{title}}</a> ({{L_day}} {{day}})</li>
{{/articles}}</ul>
</body></html>
)";

const char* const kNewsPageTmpl = R"(<html lang="{{lang}}"><head><title>{{title}}</title></head>
<body><h1>{{title}}</h1><p class="meta">{{L_day}} {{day}}</p>
<div>{{body}}</div>
{{{latest_news}}}
</body></html>
)";

const char* const kAthletePageTmpl = R"(<html lang="{{lang}}"><head><title>{{name}}</title></head>
<body><h1>{{name}}</h1>
<p><a href="{{p}}/country/{{country}}">{{country}}</a> | {{sport_name}}</p>
<h2>{{L_results}}</h2>
<ul>{{#results}}<li><a href="{{p}}/event/{{event_id}}">{{event_name}}</a>: #{{rank}}, {{score}}</li>
{{/results}}</ul>
{{^results}}<p>{{L_noresults}}</p>{{/results}}
{{{photos}}}
</body></html>
)";

const char* const kCountryPageTmpl = R"(<html lang="{{lang}}"><head><title>{{name}}</title></head>
<body><h1>{{name}} ({{code}})</h1>
<p>G:{{g}} S:{{s}} B:{{b}}</p>
<h2>{{L_athletes}}</h2>
<ul>{{#athletes}}<li><a href="{{p}}/athlete/{{id}}">{{athlete}}</a></li>
{{/athletes}}</ul>
{{{photos}}}
<h2>{{L_news}}</h2>
{{{latest_news}}}
</body></html>
)";

const char* const kSchedulePageTmpl = R"(<html lang="{{lang}}"><head><title>{{L_schedule}} {{L_day}} {{day}}</title></head>
<body><h1>{{L_schedule}} - {{L_day}} {{day}}</h1>
<ul>{{#events}}<li><a href="{{p}}/event/{{id}}">{{event_name}}</a> @ {{venue}} ({{status}})</li>
{{/events}}</ul>
</body></html>
)";

const char* const kVenuePageTmpl = R"(<html lang="{{lang}}"><head><title>{{venue}}</title></head>
<body><h1>{{venue}}</h1>
<p>{{locality}} — capacity {{capacity}}</p>
<h2>{{L_schedule}}</h2>
<ul>{{#events}}<li>{{L_day}} {{day}}: <a href="{{p}}/event/{{id}}">{{event_name}}</a> ({{status}})</li>
{{/events}}</ul>
{{^events}}<p>{{L_noevents}}</p>{{/events}}
{{{photos}}}
</body></html>
)";

const char* const kNaganoPageTmpl = R"(<html lang="{{lang}}"><head><title>Nagano</title></head>
<body><h1>Nagano, Japan</h1>
<p>Host of the XVIII Olympic Winter Games, 7-22 February 1998.</p>
<h2>{{L_schedule}}</h2>
<ul>{{#venues}}<li><a href="{{p}}/venue/{{slug}}">{{venue}}</a> — {{locality}}</li>
{{/venues}}</ul>
</body></html>
)";

const char* const kFunPageTmpl = R"(<html lang="{{lang}}"><head><title>Fun</title></head>
<body><h1>Fun &amp; Games</h1>
<p>Sports activities for children: match the mascot, guess the medal
count, and colouring pages for all {{sports}} sports.</p>
</body></html>
)";

// --- content helpers --------------------------------------------------------
//
// Generators read rows in place (Database::ReadRow / ForEachMatch) and copy
// out only the columns a page shows, straight into its template context. A
// visitor never calls back into the database, so what a page needs from a
// second table is collected first and read afterwards.

// One results row's numbers, copied out of the row.
struct ResultEntry {
  int64_t event_id = 0;
  int64_t rank = 0;
  int64_t athlete_id = 0;
  double score = 0.0;
};

ResultEntry ToResult(const Row& r) {
  return ResultEntry{AsInt(r[results_col::kEventId]),
                     AsInt(r[results_col::kRank]),
                     AsInt(r[results_col::kAthleteId]),
                     AsDouble(r[results_col::kScore])};
}

// `event_id`'s results, ordered by rank.
std::vector<ResultEntry> ResultsForEvent(const Database& db, int64_t event_id) {
  std::vector<ResultEntry> results;
  db.ForEachMatch("results", "event_id", Value(event_id),
                  [&results](const Row& r) { results.push_back(ToResult(r)); });
  std::sort(results.begin(), results.end(),
            [](const ResultEntry& a, const ResultEntry& b) {
              return a.rank < b.rank;
            });
  return results;
}

// Sets `key` to string column `column` of `table`'s row `id`, or to
// `fallback` when there is no such row.
template <typename Scope>
void SetColumn(Scope& scope, std::string_view key, const Database& db,
               std::string_view table, int64_t id, size_t column,
               std::string_view fallback) {
  const Status found = db.ReadRow(table, Value(id), [&](const Row& r) {
    scope.Set(key, AsString(r[column]));
  });
  if (!found.ok()) scope.Set(key, fallback);
}

// Sets "athlete" and "country" from one read of `athlete_id`'s row.
template <typename Scope>
void SetAthlete(Scope& scope, const Database& db, int64_t athlete_id) {
  const Status found =
      db.ReadRow("athletes", Value(athlete_id), [&scope](const Row& r) {
        scope.Set("athlete", AsString(r[athletes_col::kName]))
            .Set("country", AsString(r[athletes_col::kCountry]));
      });
  if (!found.ok()) scope.Set("athlete", "(unknown)").Set("country", "???");
}

std::string AthleteCountry(const Database& db, int64_t athlete_id) {
  std::string country = "???";
  (void)db.ReadRow("athletes", Value(athlete_id), [&country](const Row& r) {
    country = AsString(r[athletes_col::kCountry]);
  });
  return country;
}

// Same bytes as printf's %.2f.
std::string FormatScore(double score) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), score,
                                       std::chars_format::fixed, 2);
  return std::string(buf, end);
}

// Photos for (kind, subject), as an HTML strip; records the dependence on
// the subject's photo node whether or not photos exist yet, so the first
// classified photo propagates into already-cached pages.
std::string PhotoStrip(const Database& db, DependencyRecorder& deps,
                       std::string_view kind, std::string_view subject) {
  deps.DependsOnData(PhotoSubjectNode(kind, subject));
  std::string strip;
  db.ForEachMatch("photos", "subject_id", Value(std::string(subject)),
                  [&](const Row& r) {
                    if (AsString(r[2]) != kind) return;
                    strip += "<figure><img src=\"/img/";
                    strip += std::to_string(AsInt(r[0]));
                    strip += ".jpg\"/><figcaption>";
                    HtmlEscapeTo(AsString(r[1]), strip);
                    strip += "</figcaption></figure>\n";
                  });
  return strip;
}

// Ids of the `limit` newest articles, newest first. Article rows are never
// rewritten, so reading each one afterwards sees what this scan saw.
std::vector<int64_t> NewestArticleIds(const Database& db, size_t limit) {
  std::vector<int64_t> ids;
  db.ForEachRow("news", [&ids](const Row& r) {
    ids.push_back(AsInt(r[news_col::kId]));
  });
  std::sort(ids.begin(), ids.end(), std::greater<>());
  if (ids.size() > limit) ids.resize(limit);
  return ids;
}

// Adds one "articles" item per id (id, title, day) to `ctx`.
void SetArticles(const Database& db, const std::vector<int64_t>& ids,
                 TemplateContext& ctx) {
  for (const int64_t id : ids) {
    (void)db.ReadRow("news", Value(id), [&](const Row& r) {
      ctx.AddItem("articles")
          .Set("id", id)
          .Set("title", AsString(r[news_col::kTitle]))
          .Set("day", AsInt(r[news_col::kDay]));
    });
  }
}

}  // namespace

// --- schema & population -----------------------------------------------------

Status OlympicSite::CreateSchema(Database* db) {
  assert(db != nullptr);
  Status s;
  s = db->CreateTable("sports", {{"sport_id", ColumnType::kInt},
                                 {"name", ColumnType::kString}});
  if (!s.ok()) return s;
  s = db->CreateTable("events",
                      {{"event_id", ColumnType::kInt},
                       {"sport_id", ColumnType::kInt},
                       {"name", ColumnType::kString},
                       {"day", ColumnType::kInt},
                       {"venue", ColumnType::kString},
                       {"status", ColumnType::kString}});
  if (!s.ok()) return s;
  s = db->CreateTable("athletes", {{"athlete_id", ColumnType::kInt},
                                   {"name", ColumnType::kString},
                                   {"country", ColumnType::kString},
                                   {"sport_id", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("countries", {{"code", ColumnType::kString},
                                    {"name", ColumnType::kString},
                                    {"golds", ColumnType::kInt},
                                    {"silvers", ColumnType::kInt},
                                    {"bronzes", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("results", {{"result_key", ColumnType::kString},
                                  {"event_id", ColumnType::kInt},
                                  {"rank", ColumnType::kInt},
                                  {"athlete_id", ColumnType::kInt},
                                  {"score", ColumnType::kDouble}});
  if (!s.ok()) return s;
  s = db->CreateTable("medals", {{"event_id", ColumnType::kInt},
                                 {"gold", ColumnType::kInt},
                                 {"silver", ColumnType::kInt},
                                 {"bronze", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("news", {{"article_id", ColumnType::kInt},
                               {"day", ColumnType::kInt},
                               {"title", ColumnType::kString},
                               {"body", ColumnType::kString},
                               {"sport_id", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("venues", {{"name", ColumnType::kString},
                                 {"locality", ColumnType::kString},
                                 {"capacity", ColumnType::kInt}});
  if (!s.ok()) return s;
  s = db->CreateTable("photos", {{"photo_id", ColumnType::kInt},
                                 {"caption", ColumnType::kString},
                                 {"subject_kind", ColumnType::kString},
                                 {"subject_id", ColumnType::kString},
                                 {"day", ColumnType::kInt}});
  if (!s.ok()) return s;

  // Secondary indexes for the page generators' hot lookups.
  const std::pair<const char*, const char*> kIndexes[] = {
      {"events", "day"},        {"events", "sport_id"}, {"events", "venue"},
      {"results", "event_id"},  {"results", "athlete_id"},
      {"athletes", "sport_id"}, {"athletes", "country"},
      {"photos", "subject_id"},
  };
  for (const auto& [table, column] : kIndexes) {
    s = db->CreateIndex(table, column);
    if (!s.ok()) return s;
  }
  return s;
}

Status OlympicSite::Build(const OlympicConfig& config, Database* db) {
  Status s = CreateSchema(db);
  if (!s.ok()) return s;

  Rng rng(config.seed);

  const int num_sports =
      std::min<int>(config.num_sports, std::size(kSportNames));
  for (int i = 0; i < num_sports; ++i) {
    s = db->Upsert("sports", Row{Value(int64_t(i + 1)), Value(std::string(kSportNames[i]))});
    if (!s.ok()) return s;
  }

  for (size_t v = 0; v < std::size(kVenueNames); ++v) {
    s = db->Upsert("venues",
                   Row{Value(std::string(kVenueNames[v])),
                       Value(std::string(v < 4 ? "Nagano City" : "Nagano Prefecture")),
                       Value(int64_t(5000 + 1500 * (v % 5)))});
    if (!s.ok()) return s;
  }

  const int num_countries =
      std::min<int>(config.num_countries, std::size(kCountryCodes));
  for (int i = 0; i < num_countries; ++i) {
    const std::string code = kCountryCodes[i];
    s = db->Upsert("countries",
                   Row{Value(code), Value("Team " + code), Value(int64_t(0)),
                       Value(int64_t(0)), Value(int64_t(0))});
    if (!s.ok()) return s;
  }

  // Events: spread each sport's events evenly across the days.
  int64_t event_id = 0;
  for (int sp = 1; sp <= num_sports; ++sp) {
    for (int k = 0; k < config.events_per_sport; ++k) {
      ++event_id;
      const int day = 1 + (k * config.days) / config.events_per_sport;
      const char* gender = (k % 2 == 0) ? "Men's" : "Women's";
      const std::string name = std::string(gender) + " " + kSportNames[sp - 1] +
                               " #" + std::to_string(k / 2 + 1);
      const std::string venue =
          kVenueNames[rng.NextBelow(std::size(kVenueNames))];
      s = db->Upsert("events",
                     Row{Value(event_id), Value(int64_t(sp)), Value(name),
                         Value(int64_t(day)), Value(venue),
                         Value(std::string("scheduled"))});
      if (!s.ok()) return s;
    }
  }

  // Athletes: a pool per sport, countries assigned round-robin with noise.
  int64_t athlete_id = 0;
  const int per_sport = config.athletes_per_event * 2;
  for (int sp = 1; sp <= num_sports; ++sp) {
    for (int k = 0; k < per_sport; ++k) {
      ++athlete_id;
      const std::string cc =
          kCountryCodes[(k + rng.NextBelow(3)) % num_countries];
      const std::string name =
          cc + " " + kSportNames[sp - 1][0] + std::to_string(athlete_id);
      s = db->Upsert("athletes", Row{Value(athlete_id), Value(name), Value(cc),
                                     Value(int64_t(sp))});
      if (!s.ok()) return s;
    }
  }

  for (int i = 1; i <= config.initial_news_articles; ++i) {
    const int day = 1 + (i - 1) % config.days;
    s = PublishNews(db, i, day, "Preview article " + std::to_string(i),
                    "Ahead of the games: story number " + std::to_string(i) + ".",
                    1 + (i % num_sports));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// --- page names ---------------------------------------------------------------

std::string OlympicSite::DayHomePage(int day, std::string_view lang) {
  return PagePrefix(lang) + "/day/" + std::to_string(day);
}
std::string OlympicSite::SportPage(int64_t sport_id, std::string_view lang) {
  return PagePrefix(lang) + "/sport/" + std::to_string(sport_id);
}
std::string OlympicSite::EventPage(int64_t event_id, std::string_view lang) {
  return PagePrefix(lang) + "/event/" + std::to_string(event_id);
}
std::string OlympicSite::AthletePage(int64_t athlete_id, std::string_view lang) {
  return PagePrefix(lang) + "/athlete/" + std::to_string(athlete_id);
}
std::string OlympicSite::CountryPage(std::string_view code,
                                     std::string_view lang) {
  return PagePrefix(lang) + "/country/" + std::string(code);
}
std::string OlympicSite::NewsPage(int64_t article_id, std::string_view lang) {
  return PagePrefix(lang) + "/news/" + std::to_string(article_id);
}
std::string OlympicSite::EventFragment(int64_t event_id, std::string_view lang) {
  return FragPrefix(lang) + "event:" + std::to_string(event_id);
}
std::string OlympicSite::MedalsPage(std::string_view lang) {
  return PagePrefix(lang) + "/medals";
}
std::string OlympicSite::NewsIndexPage(std::string_view lang) {
  return PagePrefix(lang) + "/news";
}
std::string OlympicSite::VenuePage(std::string_view venue_name,
                                   std::string_view lang) {
  return PagePrefix(lang) + "/venue/" + VenueSlug(venue_name);
}
std::string OlympicSite::NaganoPage(std::string_view lang) {
  return PagePrefix(lang) + "/nagano";
}
std::string OlympicSite::FunPage(std::string_view lang) {
  return PagePrefix(lang) + "/fun";
}
std::string OlympicSite::MedalsFragment(std::string_view lang) {
  return FragPrefix(lang) + "medals";
}
std::string OlympicSite::LatestNewsFragment(std::string_view lang) {
  return FragPrefix(lang) + "news:latest";
}

// --- generators ----------------------------------------------------------------

void OlympicSite::RegisterGenerators(const OlympicConfig& config, Database* db,
                                     PageRenderer* renderer) {
  assert(db != nullptr && renderer != nullptr);

  // Registers the news family (index, articles, latest-news fragment) for
  // `lang` — shared between full languages and the French news-only tier.
  auto register_news = [db, renderer](const std::string& lang) {
    const std::shared_ptr<const TemplateContext> chrome = MakeChrome(lang);
    const std::string latest_fragment = LatestNewsFragment(lang);
    renderer->RegisterExact(
        latest_fragment,
        [db, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNewsFragmentTmpl);
          req.deps.DependsOnData(kNewsLatestNode);
          TemplateContext ctx(chrome.get());
          SetArticles(*db, NewestArticleIds(*db, 5), ctx);
          return tmpl.Render(ctx);
        });

    renderer->RegisterExact(
        NewsIndexPage(lang),
        [db, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNewsIndexTmpl);
          req.deps.DependsOnData(kNewsAllNode);
          TemplateContext ctx(chrome.get());
          SetArticles(*db, NewestArticleIds(*db, SIZE_MAX), ctx);
          return tmpl.Render(ctx);
        });

    const std::string news_prefix = PagePrefix(lang) + "/news/";
    renderer->RegisterPrefix(
        news_prefix, [db, chrome, news_prefix, latest_fragment](
                         const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNewsPageTmpl);
          const auto id = ParseId(req.page, news_prefix);
          if (!id) return InvalidArgumentError("bad article id");
          TemplateContext ctx(chrome.get());
          const Status found = db->ReadRow("news", Value(*id), [&](const Row& r) {
            ctx.Set("title", AsString(r[news_col::kTitle]))
                .Set("day", AsInt(r[news_col::kDay]))
                .Set("body", AsString(r[news_col::kBody]));
          });
          if (!found.ok()) return NotFoundError("no article " + std::to_string(*id));
          req.deps.DependsOnData(NewsNode(*id));
          auto latest = req.fragments(latest_fragment);
          if (!latest.ok()) return latest.status();
          ctx.Set("latest_news", latest.value());
          return tmpl.Render(ctx);
        });
  };

  for (const std::string& lang : FullLanguages(config)) {
    const std::string p = PagePrefix(lang);
    const std::shared_ptr<const TemplateContext> chrome = MakeChrome(lang);
    const std::string medals_fragment = MedalsFragment(lang);
    const std::string latest_fragment = LatestNewsFragment(lang);

    // "/" (or "/<lang>/") — welcome page listing the days.
    renderer->RegisterExact(
        p + "/", [config, chrome](const RenderRequest&) -> Result<std::string> {
          static const TemplateHolder tmpl(kWelcomeTmpl);
          TemplateContext ctx(chrome.get());
          for (int d = 1; d <= config.days; ++d) {
            ctx.AddItem("days").Set("day", int64_t(d));
          }
          return tmpl.Render(ctx);
        });

    // frag:[lang:]event:<id> — event summary (Fig. 15's per-event fragment).
    const std::string event_frag_prefix = FragPrefix(lang) + "event:";
    renderer->RegisterPrefix(
        event_frag_prefix,
        [db, chrome, event_frag_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kEventFragmentTmpl);
          const auto id = ParseId(req.page, event_frag_prefix);
          if (!id) return InvalidArgumentError("bad fragment id");
          TemplateContext ctx(chrome.get());
          ctx.Set("event_id", *id);
          const Status found = db->ReadRow("events", Value(*id), [&](const Row& r) {
            ctx.Set("event_name", AsString(r[events_col::kName]))
                .Set("status", AsString(r[events_col::kStatus]))
                .Set("venue", AsString(r[events_col::kVenue]));
          });
          if (!found.ok()) return NotFoundError("no event " + std::to_string(*id));
          // Results are the substance of the summary; the event row itself
          // (venue/name) rarely changes — Fig. 1-style weights.
          req.deps.DependsOnData(EventNode(*id), 2.0);
          req.deps.DependsOnData(ResultsEventNode(*id), 5.0);

          const std::vector<ResultEntry> results = ResultsForEvent(*db, *id);
          for (size_t i = 0; i < results.size() && i < 3; ++i) {
            const int64_t aid = results[i].athlete_id;
            auto top = ctx.AddItem("top");
            SetAthlete(top, *db, aid);
            top.Set("score", FormatScore(results[i].score));
          }
          ctx.Set("photos",
                  PhotoStrip(*db, req.deps, "event", std::to_string(*id)));
          return tmpl.Render(ctx);
        });

    // frag:[lang:]medals — the medal standings table.
    renderer->RegisterExact(
        medals_fragment,
        [db, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kMedalsFragmentTmpl);
          req.deps.DependsOnData(kMedalsAllNode);
          // Medalist countries only, copied out of the rows (codes and
          // names are short) and ranked by golds, then code.
          struct Standing {
            std::string code, name;
            int64_t g, s, b;
          };
          std::vector<Standing> standings;
          db->ForEachRow("countries", [&standings](const Row& r) {
            const int64_t g = AsInt(r[countries_col::kGolds]);
            const int64_t s = AsInt(r[countries_col::kSilvers]);
            const int64_t b = AsInt(r[countries_col::kBronzes]);
            if (g + s + b == 0) return;
            standings.push_back(Standing{AsString(r[countries_col::kCode]),
                                         AsString(r[countries_col::kName]), g,
                                         s, b});
          });
          std::sort(standings.begin(), standings.end(),
                    [](const Standing& a, const Standing& b) {
                      if (a.g != b.g) return a.g > b.g;
                      return a.code < b.code;
                    });
          TemplateContext ctx(chrome.get());
          for (const Standing& c : standings) {
            ctx.AddItem("rows")
                .Set("code", c.code)
                .Set("name", c.name)
                .Set("g", c.g)
                .Set("s", c.s)
                .Set("b", c.b)
                .Set("total", c.g + c.s + c.b);
          }
          return tmpl.Render(ctx);
        });

    // /day/<d> — the 1998 innovation: a home page per day, front-loading
    // the information clients previously needed 3+ navigations to reach.
    const std::string day_prefix = p + "/day/";
    renderer->RegisterPrefix(
        day_prefix, [db, lang, chrome, day_prefix, medals_fragment,
                     latest_fragment](
                        const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kDayHomeTmpl);
          const auto day = ParseId(req.page, day_prefix);
          if (!day) return InvalidArgumentError("bad day");
          req.deps.DependsOnData(EventDayNode(*day));

          std::vector<int64_t> event_ids;
          db->ForEachMatch("events", "day", Value(*day), [&](const Row& r) {
            event_ids.push_back(AsInt(r[events_col::kId]));
          });
          TemplateContext ctx(chrome.get());
          ctx.Set("day", *day);

          auto medal_table = req.fragments(medals_fragment);
          if (!medal_table.ok()) return medal_table.status();
          ctx.Set("medal_table", medal_table.value());

          for (const int64_t eid : event_ids) {
            auto summary = req.fragments(EventFragment(eid, lang));
            if (!summary.ok()) return summary.status();
            ctx.AddItem("events").Set("summary", summary.value());
          }

          auto latest = req.fragments(latest_fragment);
          if (!latest.ok()) return latest.status();
          ctx.Set("latest_news", latest.value());
          return tmpl.Render(ctx);
        });

    // /event/<id> — full result page.
    const std::string event_prefix = p + "/event/";
    renderer->RegisterPrefix(
        event_prefix,
        [db, chrome, event_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kEventPageTmpl);
          const auto id = ParseId(req.page, event_prefix);
          if (!id) return InvalidArgumentError("bad event id");
          TemplateContext ctx(chrome.get());
          int64_t sport_id = 0;
          const Status found = db->ReadRow("events", Value(*id), [&](const Row& r) {
            sport_id = AsInt(r[events_col::kSportId]);
            ctx.Set("event_name", AsString(r[events_col::kName]))
                .Set("day", AsInt(r[events_col::kDay]))
                .Set("venue", AsString(r[events_col::kVenue]))
                .Set("status", AsString(r[events_col::kStatus]));
          });
          if (!found.ok()) return NotFoundError("no event " + std::to_string(*id));
          req.deps.DependsOnData(EventNode(*id), 2.0);
          req.deps.DependsOnData(ResultsEventNode(*id), 5.0);
          req.deps.DependsOnData(MedalsEventNode(*id), 2.0);

          SetColumn(ctx, "sport_name", *db, "sports", sport_id,
                    sports_col::kName, "(unknown sport)");
          for (const ResultEntry& result : ResultsForEvent(*db, *id)) {
            const int64_t aid = result.athlete_id;
            req.deps.DependsOnData(AthleteNode(aid));
            auto row = ctx.AddItem("results");
            row.Set("rank", result.rank).Set("athlete_id", aid);
            SetAthlete(row, *db, aid);
            row.Set("score", FormatScore(result.score));
          }
          ctx.Set("photos",
                  PhotoStrip(*db, req.deps, "event", std::to_string(*id)));

          int64_t medalists[3] = {0, 0, 0};
          const Status medal = db->ReadRow("medals", Value(*id), [&](const Row& m) {
            medalists[0] = AsInt(m[medals_col::kGold]);
            medalists[1] = AsInt(m[medals_col::kSilver]);
            medalists[2] = AsInt(m[medals_col::kBronze]);
          });
          if (medal.ok()) {
            auto flag = ctx.AddItem("has_medals");
            const char* const keys[] = {"gold", "silver", "bronze"};
            for (size_t i = 0; i < 3; ++i) {
              SetColumn(flag, keys[i], *db, "athletes", medalists[i],
                        athletes_col::kName, "(unknown)");
            }
          }
          return tmpl.Render(ctx);
        });

    // /sport/<id> — sport page embedding its events' summary fragments.
    const std::string sport_prefix = p + "/sport/";
    renderer->RegisterPrefix(
        sport_prefix,
        [db, lang, chrome, sport_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kSportPageTmpl);
          const auto id = ParseId(req.page, sport_prefix);
          if (!id) return InvalidArgumentError("bad sport id");
          TemplateContext ctx(chrome.get());
          const Status found = db->ReadRow("sports", Value(*id), [&](const Row& r) {
            ctx.Set("sport_name", AsString(r[sports_col::kName]));
          });
          if (!found.ok()) return NotFoundError("no sport " + std::to_string(*id));
          req.deps.DependsOnData(SportNode(*id));
          req.deps.DependsOnData(EventSportNode(*id));

          std::vector<int64_t> event_ids;
          db->ForEachMatch("events", "sport_id", Value(*id), [&](const Row& r) {
            event_ids.push_back(AsInt(r[events_col::kId]));
          });
          for (const int64_t eid : event_ids) {
            auto summary = req.fragments(EventFragment(eid, lang));
            if (!summary.ok()) return summary.status();
            ctx.AddItem("events").Set("summary", summary.value());
          }
          return tmpl.Render(ctx);
        });

    // /athlete/<id> — the 1998 site's per-athlete collation of results.
    const std::string athlete_prefix = p + "/athlete/";
    renderer->RegisterPrefix(
        athlete_prefix,
        [db, chrome, athlete_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kAthletePageTmpl);
          const auto id = ParseId(req.page, athlete_prefix);
          if (!id) return InvalidArgumentError("bad athlete id");
          TemplateContext ctx(chrome.get());
          int64_t sport_id = 0;
          const Status found = db->ReadRow("athletes", Value(*id), [&](const Row& a) {
            sport_id = AsInt(a[athletes_col::kSportId]);
            ctx.Set("name", AsString(a[athletes_col::kName]))
                .Set("country", AsString(a[athletes_col::kCountry]));
          });
          if (!found.ok()) {
            return NotFoundError("no athlete " + std::to_string(*id));
          }
          req.deps.DependsOnData(AthleteNode(*id), 2.0);
          req.deps.DependsOnData(ResultsAthleteNode(*id), 5.0);

          SetColumn(ctx, "sport_name", *db, "sports", sport_id,
                    sports_col::kName, "(unknown sport)");
          std::vector<ResultEntry> results;
          db->ForEachMatch("results", "athlete_id", Value(*id), [&](const Row& r) {
            results.push_back(ToResult(r));
          });
          for (const ResultEntry& result : results) {
            auto item = ctx.AddItem("results");
            item.Set("event_id", result.event_id);
            SetColumn(item, "event_name", *db, "events", result.event_id,
                      events_col::kName, "(unknown)");
            item.Set("rank", result.rank)
                .Set("score", FormatScore(result.score));
          }
          ctx.Set("photos",
                  PhotoStrip(*db, req.deps, "athlete", std::to_string(*id)));
          return tmpl.Render(ctx);
        });

    // /country/<code> — the 1998 site's per-country collation.
    const std::string country_prefix = p + "/country/";
    renderer->RegisterPrefix(
        country_prefix,
        [db, chrome, country_prefix, latest_fragment](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kCountryPageTmpl);
          if (req.page.size() <= country_prefix.size()) {
            return InvalidArgumentError("bad country");
          }
          const std::string code(req.page.substr(country_prefix.size()));
          TemplateContext ctx(chrome.get());
          ctx.Set("code", code);
          const Status found = db->ReadRow("countries", Value(code), [&](const Row& c) {
            ctx.Set("name", AsString(c[countries_col::kName]))
                .Set("g", AsInt(c[countries_col::kGolds]))
                .Set("s", AsInt(c[countries_col::kSilvers]))
                .Set("b", AsInt(c[countries_col::kBronzes]));
          });
          if (!found.ok()) return NotFoundError("no country " + code);
          req.deps.DependsOnData(CountryNode(code), 3.0);
          req.deps.DependsOnData(MedalsCountryNode(code), 2.0);
          req.deps.DependsOnData(AthleteCountryNode(code), 1.0);

          db->ForEachMatch("athletes", "country", Value(code), [&](const Row& r) {
            ctx.AddItem("athletes")
                .Set("id", AsInt(r[athletes_col::kId]))
                .Set("athlete", AsString(r[athletes_col::kName]));
          });
          ctx.Set("photos", PhotoStrip(*db, req.deps, "country", code));
          auto latest = req.fragments(latest_fragment);
          if (!latest.ok()) return latest.status();
          ctx.Set("latest_news", latest.value());
          return tmpl.Render(ctx);
        });

    // /medals — standings page wrapping the fragment.
    renderer->RegisterExact(
        MedalsPage(lang),
        [chrome, medals_fragment](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kMedalsPageTmpl);
          TemplateContext ctx(chrome.get());
          auto table = req.fragments(medals_fragment);
          if (!table.ok()) return table.status();
          ctx.Set("medal_table", table.value());
          return tmpl.Render(ctx);
        });

    // /schedule/day/<d> — the day's programme.
    const std::string schedule_prefix = p + "/schedule/day/";
    renderer->RegisterPrefix(
        schedule_prefix,
        [db, chrome, schedule_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kSchedulePageTmpl);
          const auto day = ParseId(req.page, schedule_prefix);
          if (!day) return InvalidArgumentError("bad day");
          req.deps.DependsOnData(EventDayNode(*day));
          TemplateContext ctx(chrome.get());
          ctx.Set("day", *day);
          db->ForEachMatch("events", "day", Value(*day), [&](const Row& r) {
            // Status is read straight off the row, so freshness needs the
            // per-event node — the membership node above only covers which
            // events appear.
            req.deps.DependsOnData(EventNode(AsInt(r[events_col::kId])));
            ctx.AddItem("events")
                .Set("id", AsInt(r[events_col::kId]))
                .Set("event_name", AsString(r[events_col::kName]))
                .Set("venue", AsString(r[events_col::kVenue]))
                .Set("status", AsString(r[events_col::kStatus]));
          });
          return tmpl.Render(ctx);
        });

    // /venue/<slug> — §3.1 category 4: "information on where the sports
    // were performed", combined with that venue's programme.
    const std::string venue_prefix = p + "/venue/";
    renderer->RegisterPrefix(
        venue_prefix,
        [db, chrome, venue_prefix](
            const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kVenuePageTmpl);
          if (req.page.size() <= venue_prefix.size()) {
            return InvalidArgumentError("bad venue");
          }
          const std::string name =
              VenueUnslug(req.page.substr(venue_prefix.size()));
          TemplateContext ctx(chrome.get());
          ctx.Set("venue", name);
          const Status found = db->ReadRow("venues", Value(name), [&](const Row& v) {
            ctx.Set("locality", AsString(v[1])).Set("capacity", AsInt(v[2]));
          });
          if (!found.ok()) return NotFoundError("no venue " + name);
          req.deps.DependsOnData(VenueNode(name));
          req.deps.DependsOnData(EventVenueNode(name));

          db->ForEachMatch("events", "venue", Value(name), [&](const Row& r) {
            // Same as the schedule page: status comes off the row itself.
            req.deps.DependsOnData(EventNode(AsInt(r[events_col::kId])));
            ctx.AddItem("events")
                .Set("id", AsInt(r[events_col::kId]))
                .Set("event_name", AsString(r[events_col::kName]))
                .Set("day", AsInt(r[events_col::kDay]))
                .Set("status", AsString(r[events_col::kStatus]));
          });
          ctx.Set("photos", PhotoStrip(*db, req.deps, "venue", name));
          return tmpl.Render(ctx);
        });

    // /nagano — §3.1 category 8: "information about Nagano, Japan".
    renderer->RegisterExact(
        NaganoPage(lang),
        [db, chrome](const RenderRequest& req) -> Result<std::string> {
          static const TemplateHolder tmpl(kNaganoPageTmpl);
          req.deps.DependsOnData(kVenuesAllNode);
          TemplateContext ctx(chrome.get());
          db->ForEachRow("venues", [&ctx](const Row& r) {
            ctx.AddItem("venues")
                .Set("venue", AsString(r[0]))
                .Set("slug", VenueSlug(AsString(r[0])))
                .Set("locality", AsString(r[1]));
          });
          return tmpl.Render(ctx);
        });

    // /fun — §3.1 category 9: "sports-related activities for children".
    renderer->RegisterExact(
        FunPage(lang),
        [db, chrome](const RenderRequest&) -> Result<std::string> {
          static const TemplateHolder tmpl(kFunPageTmpl);
          TemplateContext ctx(chrome.get());
          ctx.Set("sports", int64_t(db->RowCount("sports")));
          return tmpl.Render(ctx);
        });

    register_news(lang);
  }

  // "All news articles were also available in French."
  if (config.french_news &&
      std::find(config.languages.begin(), config.languages.end(), "fr") ==
          config.languages.end()) {
    register_news("fr");
  }
}

// --- change mapping --------------------------------------------------------------

std::vector<std::string> OlympicSite::MapChangeToDataNodes(
    const ChangeRecord& change, const Database& db) {
  std::vector<std::string> nodes;
  const bool is_delete = change.op == db::ChangeOp::kDelete;

  if (change.table == "results") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("results:*");
      return nodes;
    }
    nodes.push_back(ResultsEventNode(AsInt(change.row[results_col::kEventId])));
    nodes.push_back(
        ResultsAthleteNode(AsInt(change.row[results_col::kAthleteId])));
  } else if (change.table == "events") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("events:*");
      return nodes;
    }
    nodes.push_back(EventNode(AsInt(change.row[events_col::kId])));
    // Day/sport/venue membership is fixed when the event row is inserted;
    // updates touch mutable columns only (status), which pages read through
    // the per-event node. Keeping membership nodes out of the update mapping
    // is what lets a completion patch day/sport plans instead of re-rendering
    // them.
    if (change.op != db::ChangeOp::kUpdate) {
      nodes.push_back(EventDayNode(AsInt(change.row[events_col::kDay])));
      nodes.push_back(EventSportNode(AsInt(change.row[events_col::kSportId])));
      nodes.push_back(EventVenueNode(AsString(change.row[events_col::kVenue])));
    }
  } else if (change.table == "medals") {
    if (is_delete || change.row.empty()) {
      nodes.push_back(kMedalsAllNode);
      return nodes;
    }
    nodes.push_back(MedalsEventNode(AsInt(change.row[medals_col::kEventId])));
    nodes.push_back(kMedalsAllNode);
    for (size_t c : {medals_col::kGold, medals_col::kSilver, medals_col::kBronze}) {
      nodes.push_back(
          MedalsCountryNode(AthleteCountry(db, AsInt(change.row[c]))));
    }
  } else if (change.table == "countries") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("countries:*");
      nodes.push_back(kMedalsAllNode);
      return nodes;
    }
    nodes.push_back(CountryNode(AsString(change.row[countries_col::kCode])));
    // Medal tallies live in this table; the standings fragment depends on
    // the aggregate node.
    nodes.push_back(kMedalsAllNode);
  } else if (change.table == "athletes") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("athletes:*");
      return nodes;
    }
    nodes.push_back(AthleteNode(AsInt(change.row[athletes_col::kId])));
    nodes.push_back(
        AthleteCountryNode(AsString(change.row[athletes_col::kCountry])));
  } else if (change.table == "photos") {
    if (is_delete || change.row.empty()) {
      nodes.push_back("photos:*");
      return nodes;
    }
    nodes.push_back(PhotoSubjectNode(AsString(change.row[2]),
                                     AsString(change.row[3])));
  } else if (change.table == "venues") {
    if (is_delete || change.row.empty()) {
      nodes.push_back(kVenuesAllNode);
      return nodes;
    }
    nodes.push_back(VenueNode(AsString(change.row[0])));
    nodes.push_back(kVenuesAllNode);
  } else if (change.table == "news") {
    if (is_delete || change.row.empty()) {
      nodes.push_back(kNewsAllNode);
      nodes.push_back(kNewsLatestNode);
      return nodes;
    }
    nodes.push_back(NewsNode(AsInt(change.row[news_col::kId])));
    nodes.push_back(kNewsLatestNode);
    nodes.push_back(kNewsAllNode);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// --- enumeration -------------------------------------------------------------------

std::vector<std::string> OlympicSite::AllPageNames(const OlympicConfig& config,
                                                   const Database& db) {
  std::vector<std::string> pages;
  for (const std::string& lang : FullLanguages(config)) {
    const std::string p = PagePrefix(lang);
    pages.push_back(p + "/");
    pages.push_back(MedalsPage(lang));
    pages.push_back(NewsIndexPage(lang));
    for (int d = 1; d <= config.days; ++d) {
      pages.push_back(DayHomePage(d, lang));
      pages.push_back(p + "/schedule/day/" + std::to_string(d));
    }
    for (const Row& r : db.ScanAll("sports")) {
      pages.push_back(SportPage(AsInt(r[sports_col::kId]), lang));
    }
    for (const Row& r : db.ScanAll("events")) {
      pages.push_back(EventPage(AsInt(r[events_col::kId]), lang));
    }
    for (const Row& r : db.ScanAll("athletes")) {
      pages.push_back(AthletePage(AsInt(r[athletes_col::kId]), lang));
    }
    for (const Row& r : db.ScanAll("countries")) {
      pages.push_back(CountryPage(AsString(r[countries_col::kCode]), lang));
    }
    for (const Row& r : db.ScanAll("news")) {
      pages.push_back(NewsPage(AsInt(r[news_col::kId]), lang));
    }
    for (const Row& r : db.ScanAll("venues")) {
      pages.push_back(VenuePage(AsString(r[0]), lang));
    }
    pages.push_back(NaganoPage(lang));
    pages.push_back(FunPage(lang));
  }
  if (config.french_news &&
      std::find(config.languages.begin(), config.languages.end(), "fr") ==
          config.languages.end()) {
    pages.push_back(NewsIndexPage("fr"));
    for (const Row& r : db.ScanAll("news")) {
      pages.push_back(NewsPage(AsInt(r[news_col::kId]), "fr"));
    }
  }
  return pages;
}

std::vector<std::string> OlympicSite::AllFragmentNames(
    const OlympicConfig& config, const Database& db) {
  std::vector<std::string> fragments;
  for (const std::string& lang : FullLanguages(config)) {
    fragments.push_back(MedalsFragment(lang));
    fragments.push_back(LatestNewsFragment(lang));
    for (const Row& r : db.ScanAll("events")) {
      fragments.push_back(EventFragment(AsInt(r[events_col::kId]), lang));
    }
  }
  if (config.french_news &&
      std::find(config.languages.begin(), config.languages.end(), "fr") ==
          config.languages.end()) {
    fragments.push_back(LatestNewsFragment("fr"));
  }
  return fragments;
}

// --- result-feed mutations ------------------------------------------------------------

Status OlympicSite::RecordResult(Database* db, int64_t event_id, int64_t rank,
                                 int64_t athlete_id, double score) {
  auto event = db->Get("events", Value(event_id));
  if (!event.ok()) return event.status();
  Status s = db->Upsert(
      "results", Row{Value(ResultKey(event_id, rank)), Value(event_id),
                     Value(rank), Value(athlete_id), Value(score)});
  if (!s.ok()) return s;
  Row row = event.value();
  if (AsString(row[events_col::kStatus]) == "scheduled") {
    row[events_col::kStatus] = std::string("in_progress");
    return db->Upsert("events", std::move(row));
  }
  return Status::Ok();
}

Status OlympicSite::CompleteEvent(Database* db, int64_t event_id) {
  auto event = db->Get("events", Value(event_id));
  if (!event.ok()) return event.status();

  auto results = db->Lookup("results", "event_id", Value(event_id));
  std::sort(results.begin(), results.end(), [](const Row& a, const Row& b) {
    return AsInt(a[results_col::kRank]) < AsInt(b[results_col::kRank]);
  });
  if (results.size() < 3) {
    return FailedPreconditionError("CompleteEvent: fewer than 3 results");
  }

  const int64_t gold = AsInt(results[0][results_col::kAthleteId]);
  const int64_t silver = AsInt(results[1][results_col::kAthleteId]);
  const int64_t bronze = AsInt(results[2][results_col::kAthleteId]);

  Status s = db->Upsert("medals", Row{Value(event_id), Value(gold),
                                      Value(silver), Value(bronze)});
  if (!s.ok()) return s;

  // Bump each medalist country's tally.
  const std::pair<int64_t, size_t> awards[] = {
      {gold, countries_col::kGolds},
      {silver, countries_col::kSilvers},
      {bronze, countries_col::kBronzes}};
  for (const auto& [athlete, column] : awards) {
    const std::string cc = AthleteCountry(*db, athlete);
    auto country = db->Get("countries", Value(cc));
    if (!country.ok()) return country.status();
    Row row = country.value();
    row[column] = AsInt(row[column]) + 1;
    s = db->Upsert("countries", std::move(row));
    if (!s.ok()) return s;
  }

  Row row = event.value();
  row[events_col::kStatus] = std::string("final");
  return db->Upsert("events", std::move(row));
}

Status OlympicSite::PublishPhoto(Database* db, int64_t photo_id,
                                 std::string_view caption,
                                 std::string_view subject_kind,
                                 std::string_view subject_id, int day) {
  return db->Upsert("photos",
                    Row{Value(photo_id), Value(std::string(caption)),
                        Value(std::string(subject_kind)),
                        Value(std::string(subject_id)), Value(int64_t(day))});
}

Status OlympicSite::PublishNews(Database* db, int64_t article_id, int day,
                                std::string_view title, std::string_view body,
                                int64_t sport_id) {
  return db->Upsert("news",
                    Row{Value(article_id), Value(int64_t(day)),
                        Value(std::string(title)), Value(std::string(body)),
                        Value(sport_id)});
}

}  // namespace nagano::pagegen
