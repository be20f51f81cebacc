#include "sim/scheme_registry.hh"

#include <algorithm>
#include <stdexcept>

namespace pomtlb
{

SchemeRegistry &
SchemeRegistry::global()
{
    // Function-local static: safe to touch from any translation
    // unit's static initialisers (first use constructs it).
    static SchemeRegistry registry;
    return registry;
}

void
SchemeRegistry::add(Info info)
{
    if (info.name.empty())
        throw std::invalid_argument("scheme name must not be empty");
    if (!info.factory)
        throw std::invalid_argument("scheme '" + info.name +
                                    "' has no factory");
    auto taken = [this](const std::string &name) {
        for (const Info &existing : schemes) {
            if (existing.name == name)
                return true;
            for (const std::string &alias : existing.aliases) {
                if (alias == name)
                    return true;
            }
        }
        return false;
    };
    if (taken(info.name))
        throw std::invalid_argument("duplicate scheme name '" +
                                    info.name + "'");
    for (const std::string &alias : info.aliases) {
        if (alias == info.name || taken(alias))
            throw std::invalid_argument("duplicate scheme alias '" +
                                        alias + "'");
    }
    schemes.push_back(std::move(info));
}

const SchemeRegistry::Info *
SchemeRegistry::find(const std::string &name_or_alias) const
{
    for (const Info &info : schemes) {
        if (info.name == name_or_alias)
            return &info;
        for (const std::string &alias : info.aliases) {
            if (alias == name_or_alias)
                return &info;
        }
    }
    return nullptr;
}

std::vector<const SchemeRegistry::Info *>
SchemeRegistry::entries() const
{
    std::vector<const Info *> ordered;
    ordered.reserve(schemes.size());
    for (const Info &info : schemes)
        ordered.push_back(&info);
    std::sort(ordered.begin(), ordered.end(),
              [](const Info *a, const Info *b) {
                  if (a->rank != b->rank)
                      return a->rank < b->rank;
                  return a->name < b->name;
              });
    return ordered;
}

std::vector<std::string>
SchemeRegistry::names() const
{
    std::vector<std::string> ordered;
    ordered.reserve(schemes.size());
    for (const Info *info : entries())
        ordered.push_back(info->name);
    return ordered;
}

std::unique_ptr<TranslationScheme>
SchemeRegistry::create(const std::string &name_or_alias,
                       const SystemConfig &config,
                       Machine &machine) const
{
    const Info *info = find(name_or_alias);
    if (info == nullptr)
        throw std::invalid_argument("unknown translation scheme '" +
                                    name_or_alias + "'");
    return info->factory(config, machine);
}

SchemeRegistrar::SchemeRegistrar(SchemeRegistry::Info info)
{
    SchemeRegistry::global().add(std::move(info));
}

} // namespace pomtlb
