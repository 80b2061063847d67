#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <set>

#include "apps/catalog.h"
#include "apps/render.h"
#include "apps/schema.h"
#include "common/error.h"
#include "configstore/gconf_store.h"

namespace ocasta {
namespace {

// ----- Schema ---------------------------------------------------------------------

TEST(KeySpec, DefaultValuesMatchTypes) {
  KeySpec toggle{.path = "/a/b", .type = ValueType::kBool};
  EXPECT_EQ(toggle.DefaultValue().type(), ValueType::kBool);

  KeySpec number{.path = "/a/n", .type = ValueType::kInt, .int_min = 10, .int_max = 20};
  const int64_t v = number.DefaultValue().as_int();
  EXPECT_GE(v, 10);
  EXPECT_LE(v, 20);

  KeySpec choice{.path = "/a/c", .type = ValueType::kString, .choices = {"x", "y"}};
  EXPECT_EQ(choice.DefaultValue(), Value("x"));
}

TEST(AppSchema, LookupsAndCounts) {
  const AppSchema app = BuildEvolution();
  EXPECT_NE(app.FindGroup("evolution-mark-seen"), nullptr);
  EXPECT_EQ(app.FindGroup("nope"), nullptr);
  EXPECT_NE(app.FindKey("/apps/evolution/mail/display/mark_seen"), nullptr);
  EXPECT_EQ(app.FindKey("/nope"), nullptr);
  EXPECT_EQ(app.total_keys(), app.DefaultConfig().size());
}

// ----- Catalog sanity (Table II scale) -------------------------------------------------

struct CatalogExpectation {
  const char* name;
  StoreKind store;
  size_t paper_keys;  // Table II "#Keys".
};

// Without a printer gtest prints the raw struct bytes (a string pointer) into
// the ctest name, which then changes from one build to the next.
void PrintTo(const CatalogExpectation& e, std::ostream* os) { *os << e.name; }

class CatalogTest : public ::testing::TestWithParam<CatalogExpectation> {};

TEST_P(CatalogTest, MatchesPaperScale) {
  const CatalogExpectation& expected = GetParam();
  const AppSchema app = AppSchemaByName(expected.name);
  EXPECT_EQ(app.store, expected.store);
  // Within 15% of the Table II key count.
  const double ratio =
      static_cast<double>(app.total_keys()) / static_cast<double>(expected.paper_keys);
  EXPECT_GT(ratio, 0.85) << app.total_keys() << " keys vs paper " << expected.paper_keys;
  EXPECT_LT(ratio, 1.15) << app.total_keys() << " keys vs paper " << expected.paper_keys;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CatalogTest,
    ::testing::Values(CatalogExpectation{kOutlook, StoreKind::kRegistry, 182},
                      CatalogExpectation{kEvolution, StoreKind::kGconf, 183},
                      CatalogExpectation{kInternetExplorer, StoreKind::kRegistry, 33},
                      CatalogExpectation{kChrome, StoreKind::kFile, 35},
                      CatalogExpectation{kWord, StoreKind::kRegistry, 143},
                      CatalogExpectation{kGnomeEdit, StoreKind::kGconf, 10},
                      CatalogExpectation{kPaint, StoreKind::kRegistry, 66},
                      CatalogExpectation{kEyeOfGnome, StoreKind::kGconf, 5},
                      CatalogExpectation{kAcrobat, StoreKind::kFile, 751},
                      CatalogExpectation{kExplorer, StoreKind::kRegistry, 298},
                      CatalogExpectation{kMediaPlayer, StoreKind::kRegistry, 165}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Catalog, AllKeyPathsUniqueWithinApp) {
  for (const AppSchema& app : AllAppSchemas()) {
    std::set<std::string> paths;
    for (const SchemaGroup& group : app.groups) {
      for (const KeySpec& key : group.keys) {
        EXPECT_TRUE(paths.insert(key.path).second) << app.name << " duplicates key " << key.path;
      }
    }
    for (const KeySpec& key : app.readonly_keys) {
      EXPECT_TRUE(paths.insert(key.path).second) << app.name << " duplicates key " << key.path;
    }
  }
}

TEST(Catalog, WriteSectionsReferenceRealGroups) {
  for (const AppSchema& app : AllAppSchemas()) {
    for (const auto& section : app.write_sections) {
      EXPECT_GE(section.size(), 2u);
      for (const std::string& name : section) {
        EXPECT_NE(app.FindGroup(name), nullptr) << app.name << " section names " << name;
      }
    }
  }
}

TEST(Catalog, ScenarioSignatureKeysAreUiVisible) {
  // Errors must be "visually observable on the display".
  const struct {
    const char* app;
    const char* key;
  } cases[] = {
      {kOutlook,
       "HKEY_CURRENT_USER\\Software\\Microsoft\\Office\\12.0\\Outlook\\Preferences\\NavPaneVisible"},
      {kWord, "HKEY_CURRENT_USER\\Software\\Microsoft\\Office\\12.0\\Word\\Options\\Max Display"},
      {kEvolution, "/apps/evolution/shell/start_offline"},
      {kChrome, "bookmark_bar/show_on_all_tabs"},
      {kAcrobat, "Originals/ShowMenuBar"},
      {kAcrobat, "Toolbars/ShowFindBox"},
  };
  for (const auto& c : cases) {
    const AppSchema app = AppSchemaByName(c.app);
    const KeySpec* key = app.FindKey(c.key);
    ASSERT_NE(key, nullptr) << c.key;
    EXPECT_TRUE(key->ui_visible) << c.key;
  }
}

TEST(Catalog, UnknownAppThrows) { EXPECT_THROW(AppSchemaByName("Nope"), Error); }

TEST(Catalog, SystemBackgroundScales) {
  const AppSchema system = BuildSystemBackground(StoreKind::kRegistry, 1000, 50);
  EXPECT_EQ(system.total_keys(), 1000u);
  size_t churn = 0;
  for (const SchemaGroup& group : system.groups) {
    if (group.rotations_per_session > 0) ++churn;
  }
  EXPECT_EQ(churn, 50u);
}

// ----- Rendering -----------------------------------------------------------------------

TEST(Render, ShowsUiVisibleKeysOnly) {
  AppSchema app;
  app.name = "Mini";
  app.store = StoreKind::kGconf;
  SchemaGroup group;
  group.name = "g";
  group.keys = {KeySpec{.path = "/a/visible", .type = ValueType::kBool, .ui_visible = true},
                KeySpec{.path = "/a/hidden", .type = ValueType::kBool}};
  app.groups.push_back(group);

  GconfStore store;
  store.Write("/a/visible", Value(true));
  store.Write("/a/hidden", Value(false));
  const Screenshot shot = RenderApp(app, store);
  EXPECT_NE(shot.text.find("/a/visible = true"), std::string::npos);
  EXPECT_EQ(shot.text.find("/a/hidden"), std::string::npos);
}

TEST(Render, AbsentKeysRenderUnset) {
  AppSchema app;
  app.name = "Mini";
  SchemaGroup group;
  group.keys = {KeySpec{.path = "/a/x", .type = ValueType::kInt, .ui_visible = true}};
  app.groups.push_back(group);
  GconfStore store;
  const Screenshot shot = RenderApp(app, store);
  EXPECT_NE(shot.text.find("/a/x = <unset>"), std::string::npos);
}

TEST(Render, DeterministicHashDeduplication) {
  const AppSchema app = BuildEyeOfGnome();
  GconfStore store;
  store.RestoreSnapshot(app.DefaultConfig());
  const Screenshot a = RenderApp(app, store);
  const Screenshot b = RenderApp(app, store);
  EXPECT_EQ(a, b);
  store.Write("/apps/eog/ui/can_print", Value(false));
  const Screenshot c = RenderApp(app, store);
  EXPECT_NE(a.hash, c.hash);  // Visible change: different screenshot.
}

}  // namespace
}  // namespace ocasta
